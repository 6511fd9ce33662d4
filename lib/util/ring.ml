type 'a t = {
  dummy : 'a;
  mutable buf : 'a array;
  mutable head : int;  (* index of the front element *)
  mutable len : int;
}

(* Capacity is kept a power of two so index wrap-around is a mask, not a
   modulo. *)

let create ~dummy = { dummy; buf = [||]; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.buf in
  let ncap = if cap = 0 then 8 else 2 * cap in
  let buf = Array.make ncap t.dummy in
  (* Unroll the ring into the new array starting at 0. *)
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.((t.head + i) land (cap - 1))
  done;
  t.buf <- buf;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then grow t;
  let mask = Array.length t.buf - 1 in
  t.buf.((t.head + t.len) land mask) <- x;
  t.len <- t.len + 1

let push_front t x =
  if t.len = Array.length t.buf then grow t;
  let mask = Array.length t.buf - 1 in
  let head = (t.head - 1) land mask in
  t.buf.(head) <- x;
  t.head <- head;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let x = t.buf.(t.head) in
  (* Overwrite the vacated cell so the ring does not retain the element. *)
  t.buf.(t.head) <- t.dummy;
  t.head <- (t.head + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  x

let iter t f =
  let cap = Array.length t.buf in
  for i = 0 to t.len - 1 do
    f t.buf.((t.head + i) land (cap - 1))
  done

let clear t =
  let cap = Array.length t.buf in
  for i = 0 to t.len - 1 do
    t.buf.((t.head + i) land (cap - 1)) <- t.dummy
  done;
  t.head <- 0;
  t.len <- 0
