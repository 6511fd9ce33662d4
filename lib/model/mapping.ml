type t = int array

let of_array ~processors a =
  if Array.length a = 0 then invalid_arg "Mapping.of_array: empty";
  Array.iter
    (fun p ->
      if p < 0 || p >= processors then invalid_arg "Mapping.of_array: processor out of range")
    a;
  Array.copy a

let to_array t = Array.copy t
let stages t = Array.length t
let processor_of t i = t.(i)
let equal (a : t) (b : t) = a = b

let to_string t =
  "(" ^ String.concat "," (List.map string_of_int (Array.to_list t)) ^ ")"

let round_robin ~stages ~processors =
  if stages <= 0 || processors <= 0 then invalid_arg "Mapping.round_robin";
  Array.init stages (fun i -> i mod processors)

let blocks ~stages ~processors =
  if stages <= 0 || processors <= 0 then invalid_arg "Mapping.blocks";
  let groups = min stages processors in
  (* Even split: the first [stages mod groups] blocks get one extra stage. *)
  let base = stages / groups and extra = stages mod groups in
  let boundaries = Array.make (groups + 1) 0 in
  for g = 1 to groups do
    boundaries.(g) <- boundaries.(g - 1) + base + (if g <= extra then 1 else 0)
  done;
  Array.init stages (fun i ->
      let rec find g = if i < boundaries.(g + 1) then g else find (g + 1) in
      find 0)

(* --------------------------------------------------------- enumeration *)

let max_enumeration = 1 lsl 22

(* [processors]^[stages] without ever overflowing: the running product is
   abandoned the moment it would exceed [cap]. The old float-based sizing
   ([Float.of_int p ** Float.of_int s] squeezed back through
   [int_of_float]) could misround near the cap — [5. ** 9.] and friends are
   not guaranteed exact through pow — and silently wrapped for large
   exponents. *)
let space_within ~stages ~processors ~cap =
  if stages < 0 || processors <= 0 || cap < 0 then invalid_arg "Mapping.space_within";
  let rec go acc i =
    if i = stages then Some acc
    else if acc > cap / processors then None
    else go (acc * processors) (i + 1)
  in
  go 1 0

let space_size ~stages ~processors = space_within ~stages ~processors ~cap:max_int

let free_start fix_first_on = match fix_first_on with Some _ -> 1 | None -> 0

let check_dims ?fix_first_on ~stages ~processors () =
  if stages <= 0 || processors <= 0 then invalid_arg "Mapping.enumerate";
  match fix_first_on with
  | Some p when p < 0 || p >= processors ->
      invalid_arg "Mapping.enumerate: fix_first_on out of range"
  | _ -> ()

let enumeration_total ?fix_first_on ~stages ~processors () =
  let free = stages - free_start fix_first_on in
  match space_within ~stages:free ~processors ~cap:max_enumeration with
  | Some n -> n
  | None -> invalid_arg "Mapping.enumerate: assignment space too large"

let iter_enumerate ?fix_first_on ~stages ~processors f =
  check_dims ?fix_first_on ~stages ~processors ();
  let total = enumeration_total ?fix_first_on ~stages ~processors () in
  let start = free_start fix_first_on in
  let m = Array.make stages 0 in
  (match fix_first_on with Some p -> m.(0) <- p | None -> ());
  f m;
  for _ = 1 to total - 1 do
    (* Odometer step: the free digits are little-endian in the code, so the
       visit order is ascending enumeration code. *)
    let i = ref start in
    while m.(!i) = processors - 1 do
      m.(!i) <- 0;
      incr i
    done;
    m.(!i) <- m.(!i) + 1;
    f m
  done

let enumerate ?fix_first_on ~stages ~processors () =
  let acc = ref [] in
  iter_enumerate ?fix_first_on ~stages ~processors (fun m -> acc := Array.copy m :: !acc);
  List.rev !acc

let decode ?fix_first_on ~stages ~processors code =
  check_dims ?fix_first_on ~stages ~processors ();
  let total = enumeration_total ?fix_first_on ~stages ~processors () in
  if code < 0 || code >= total then invalid_arg "Mapping.decode: code out of range";
  let start = free_start fix_first_on in
  let m = Array.make stages 0 in
  (match fix_first_on with Some p -> m.(0) <- p | None -> ());
  let rest = ref code in
  for i = start to stages - 1 do
    m.(i) <- !rest mod processors;
    rest := !rest / processors
  done;
  m

let code_of ?fix_first_on ~processors t =
  let start = free_start fix_first_on in
  let code = ref 0 in
  for i = Array.length t - 1 downto start do
    code := (!code * processors) + t.(i)
  done;
  !code

let iter_neighbours t ~processors f =
  let m = Array.copy t in
  Array.iteri
    (fun i p ->
      for q = 0 to processors - 1 do
        if q <> p then begin
          m.(i) <- q;
          f ~stage:i ~target:q m
        end
      done;
      m.(i) <- p)
    t

let neighbours t ~processors =
  let acc = ref [] in
  iter_neighbours t ~processors (fun ~stage:_ ~target:_ m -> acc := Array.copy m :: !acc);
  List.rev !acc

let stages_sharing t i =
  let p = t.(i) in
  Array.fold_left (fun acc q -> if q = p then acc + 1 else acc) 0 t
