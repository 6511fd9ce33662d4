exception Closed

(* Indices are monotonically increasing ints (never wrapped — a 63-bit
   counter outlives any run); slot = index land mask. The length is
   [tail - head], fullness [tail - head = capacity], so an empty ring and a
   full ring are distinguishable without a spare slot.

   Ownership discipline (see the .mli): [tail] is written only by the
   producer, [head] only by the consumer. Each side also keeps a plain
   (non-atomic) snapshot of the *other* side's index — [head_cache] on the
   producer, [tail_cache] on the consumer — refreshed from the atomic only
   when the cached value can no longer prove progress is possible. The
   snapshots are sound because both indices are monotone: a stale
   [head_cache] under-reports how much the consumer has freed, so the
   producer can only be too conservative (never overwrites an unconsumed
   slot); a stale [tail_cache] under-reports what has been published, so the
   consumer can only be too conservative (never reads an unpublished slot).

   Storage: items sit unboxed in a plain ['a array] of [capacity + 1]
   slots. There is no filler value at [create] (no [Obj.magic]), so the
   ring starts with the empty array and the producer allocates the slots at
   its first push, filled with that first item. The extra slot past the
   mask keeps that item as the filler the consumer writes into vacated
   slots, so popped items are not retained — only the first one is, until
   the ring itself is dropped.

   Publication: the producer writes [buf.(i)] (plain write) and then
   [Atomic.set tail] (release); the consumer observes the new [tail] via
   [Atomic.get] (acquire) before touching [buf.(i)]. The OCaml memory model
   makes the buffer write visible at that point. The same edge publishes
   the [buf] field itself: the producer stores it before its first [tail]
   store, and the consumer reads it only once it has seen [tail > head],
   hence after an acquire read of a [tail] at least 1. The symmetric
   argument covers the consumer's slot reset before it advances [head].

   The caches live in their own one-element arrays, allocated between
   padding blocks, so each side's hot mutable word shares a cache line with
   nothing the other side writes (OCaml 5.1 has no [Atomic.make_contended];
   sequential minor-heap allocation is the portable approximation, and the
   pads are retained in the record so a moving collector keeps the blocks
   apart).

   The chunk loops below are top-level functions taking every argument:
   a local [let rec] would allocate a closure per chunk, and with no
   per-item boxes left those closures would be the ring's only garbage.
   Their bounds-checking entry points stay out of line. Under the tree's
   [-inline 200], every caller would otherwise get its own copy of about
   1.3 KB, and the copies shift the code linked after the callers.
   Alignment of that code alone made the layered benchmark's sequential
   fold, which never touches a ring, run about 30 % slower on a 2-vCPU
   Xeon VM. *)

type 'a t = {
  mask : int;
  mutable buf : 'a array; (* [||] until the first push, then capacity + 1 slots *)
  (* producer-owned line(s) *)
  tail : int Atomic.t;
  head_cache : int array;
  _pad_p : int array;
  (* consumer-owned line(s) *)
  head : int Atomic.t;
  tail_cache : int array;
  _pad_c : int array;
  (* shared, read-mostly *)
  closed : bool Atomic.t;
  waiters : int Atomic.t;
  mutex : Mutex.t;
  cond : Condition.t;
}

let pad_words = 16

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ~capacity =
  if capacity <= 0 then invalid_arg "Spsc.create: capacity must be positive";
  let cap = next_pow2 capacity in
  (* Allocation order groups each side's state and separates the groups. *)
  let tail = Atomic.make 0 in
  let head_cache = Array.make 1 0 in
  let _pad_p = Array.make pad_words 0 in
  let head = Atomic.make 0 in
  let tail_cache = Array.make 1 0 in
  let _pad_c = Array.make pad_words 0 in
  {
    mask = cap - 1;
    buf = [||];
    tail;
    head_cache;
    _pad_p;
    head;
    tail_cache;
    _pad_c;
    closed = Atomic.make false;
    waiters = Atomic.make 0;
    mutex = Mutex.create ();
    cond = Condition.create ();
  }

let capacity t = t.mask + 1

(* Monomorphic, so the chunk arithmetic compares ints inline rather than
   through the polymorphic [min]. *)
let imin (a : int) b = if a <= b then a else b

(* ------------------------------------------------------- park / unpark *)

(* The flag-then-recheck protocol. The waiter raises [waiters] (with the
   mutex held) and then re-evaluates [ready] — which reads the other side's
   atomic index — before sleeping. The waker publishes (an atomic index
   write) and then reads [waiters]. Both orders are program order on
   sequentially consistent atomics, so either the waker sees the flag and
   broadcasts (under the same mutex, hence not between the waiter's re-check
   and its wait), or the waiter's re-check sees the waker's publication.
   Either way the wake-up cannot be lost. *)

let wake t =
  if Atomic.get t.waiters > 0 then begin
    Mutex.lock t.mutex;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex
  end

let park t ready =
  Mutex.lock t.mutex;
  Atomic.incr t.waiters;
  while not (ready t || Atomic.get t.closed) do
    Condition.wait t.cond t.mutex
  done;
  Atomic.decr t.waiters;
  Mutex.unlock t.mutex

let spin_budget = 64

let spin_then_park t ready =
  let budget = ref spin_budget in
  while (not (ready t)) && (not (Atomic.get t.closed)) && !budget > 0 do
    Domain.cpu_relax ();
    decr budget
  done;
  if (not (ready t)) && not (Atomic.get t.closed) then park t ready

let close t =
  Atomic.set t.closed true;
  (* Unconditional broadcast: a party between raising [waiters] and
     [Condition.wait] must still observe the close. *)
  Mutex.lock t.mutex;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex

(* -------------------------------------------------------- producer side *)

(* Free slots, refreshing the head snapshot only when the cache says none
   are left. Runs on the producer domain only. *)
let space t =
  let tail = Atomic.get t.tail in
  let free = capacity t - (tail - t.head_cache.(0)) in
  if free > 0 then free
  else begin
    t.head_cache.(0) <- Atomic.get t.head;
    capacity t - (tail - t.head_cache.(0))
  end

let ready_push t = space t > 0

(* The first push allocates the slots, filled with its item [x] (the last
   slot keeps [x] as the consumer's filler). Producer only, and called
   before the [tail] store that publishes the push. *)
let allocate_slots t x = t.buf <- Array.make (capacity t + 1) x

let rec push_window t src pos len =
  if len > 0 then begin
    if Atomic.get t.closed then raise Closed;
    let free = space t in
    if free <= 0 then begin
      spin_then_park t ready_push;
      push_window t src pos len
    end
    else begin
      let n = imin free len in
      if Array.length t.buf = 0 then allocate_slots t src.(pos);
      let buf = t.buf in
      let tail = Atomic.get t.tail in
      for k = 0 to n - 1 do
        buf.((tail + k) land t.mask) <- src.(pos + k)
      done;
      Atomic.set t.tail (tail + n);
      wake t;
      push_window t src (pos + n) (len - n)
    end
  end

let push_chunk t src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length src then
    invalid_arg "Spsc.push_chunk: window out of bounds";
  push_window t src pos len
[@@inline never]

(* -------------------------------------------------------- consumer side *)

let available t =
  let head = Atomic.get t.head in
  let avail = t.tail_cache.(0) - head in
  if avail > 0 then avail
  else begin
    t.tail_cache.(0) <- Atomic.get t.tail;
    t.tail_cache.(0) - head
  end

let ready_pop t = available t > 0

(* Only after [available t > 0]: the first push has then published [buf]. *)
let try_pop t =
  if available t <= 0 then None
  else begin
    let head = Atomic.get t.head in
    let buf = t.buf in
    let i = head land t.mask in
    let x = buf.(i) in
    buf.(i) <- buf.(t.mask + 1);
    Atomic.set t.head (head + 1);
    wake t;
    Some x
  end

let rec pop t =
  match try_pop t with
  | Some _ as r -> r
  | None ->
      if Atomic.get t.closed then
        (* Items pushed before the close must drain: the closed read above
           happens after the producer's final tail write, so one more
           refresh sees everything. *)
        try_pop t
      else begin
        spin_then_park t ready_pop;
        pop t
      end

let rec pop_window t dst pos len =
  let avail = available t in
  if avail > 0 then begin
    let n = imin avail len in
    let head = Atomic.get t.head in
    let buf = t.buf in
    let filler = buf.(t.mask + 1) in
    for k = 0 to n - 1 do
      let i = (head + k) land t.mask in
      dst.(pos + k) <- buf.(i);
      buf.(i) <- filler
    done;
    Atomic.set t.head (head + n);
    wake t;
    n
  end
  else if Atomic.get t.closed then if available t > 0 then pop_window t dst pos len else 0
  else begin
    spin_then_park t ready_pop;
    pop_window t dst pos len
  end

let pop_chunk t dst ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length dst then
    invalid_arg "Spsc.pop_chunk: window out of bounds";
  if len = 0 then 0 else pop_window t dst pos len
[@@inline never]
