type ('a, 'b) t =
  | Last : ('a -> 'b) -> ('a, 'b) t
  | Stage : ('a -> 'c) * ('c, 'b) t -> ('a, 'b) t

let last f = Last f
let ( @> ) f rest = Stage (f, rest)

let length p =
  let rec count : type a b. int -> (a, b) t -> int =
   fun acc -> function Last _ -> acc + 1 | Stage (_, rest) -> count (acc + 1) rest
  in
  count 0 p

let rec apply : type a b. (a, b) t -> a -> b =
 fun p x -> match p with Last f -> f x | Stage (f, rest) -> apply rest (f x)

(* layout: out of line (DESIGN "Code layout") *)
let[@inline never] check_groups groups n =
  if Array.length groups <> n then invalid_arg "Pipe.fuse_groups: wrong group count";
  for i = 1 to n - 1 do
    if groups.(i) < groups.(i - 1) then
      invalid_arg "Pipe.fuse_groups: groups must be non-decreasing"
  done

let fuse_groups groups p =
  check_groups groups (length p);
  let rec fuse : type a b. int -> (a, b) t -> (a, b) t =
   fun i p ->
    match p with
    | Last f -> Last f
    | Stage (f, rest) -> (
        match rest with
        | Last g when groups.(i) = groups.(i + 1) -> Last (fun x -> g (f x))
        | Stage (g, rest2) when groups.(i) = groups.(i + 1) ->
            fuse i (Stage ((fun x -> g (f x)), rest2))
        | Last _ | Stage _ -> Stage (f, fuse (i + 1) rest))
  in
  fuse 0 p
