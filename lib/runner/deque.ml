(* A double-ended work queue on a growable ring buffer.

   The owner pushes and pops at the bottom (LIFO, cache-warm freshest work);
   thieves steal from the top (FIFO, oldest and usually largest tasks) — the
   classic work-stealing discipline. The structure itself is not
   synchronised: {!Pool} serialises all access under its scheduler lock,
   because campaign tasks are whole experiments (milliseconds to seconds),
   so contention on the lock is noise next to the work it guards. *)

type 'a t = {
  mutable buf : 'a option array;
  mutable top : int;     (* index of the oldest element (steal end) *)
  mutable size : int;
}

let create () = { buf = Array.make 16 None; top = 0; size = 0 }

let length t = t.size

let grow t =
  let cap = Array.length t.buf in
  let bigger = Array.make (2 * cap) None in
  for i = 0 to t.size - 1 do
    bigger.(i) <- t.buf.((t.top + i) mod cap)
  done;
  t.buf <- bigger;
  t.top <- 0

let push t x =
  if t.size = Array.length t.buf then grow t;
  let bottom = (t.top + t.size) mod Array.length t.buf in
  t.buf.(bottom) <- Some x;
  t.size <- t.size + 1

let pop t =
  if t.size = 0 then None
  else begin
    let bottom = (t.top + t.size - 1) mod Array.length t.buf in
    let x = t.buf.(bottom) in
    t.buf.(bottom) <- None;
    t.size <- t.size - 1;
    x
  end

let steal t =
  if t.size = 0 then None
  else begin
    let x = t.buf.(t.top) in
    t.buf.(t.top) <- None;
    t.top <- (t.top + 1) mod Array.length t.buf;
    t.size <- t.size - 1;
    x
  end
