type handle = { mutable dead : bool }

(* An indexed 4-ary min-heap. The heap order lives in two flat arrays —
   [heap_keys] (unboxed floats) and [heap_slots] (ints naming a payload
   slot) — so every sift move is a pair of scalar array writes: no pointer
   chase to compare keys, no float box per entry, and crucially no GC
   write barrier, because the pointer-valued payload ([vals], [handles])
   never moves once parked in its slot. Slots are recycled through a free
   list chained through [seqs] (a freed slot's seq is never read again).

   The 4-ary shape halves the tree depth of a binary heap and puts all
   four children of a node in one cache line of [heap_keys], which is
   where sift-down — the hot operation of the event loop — spends its
   time.

   The only allocation on the insert/pop path is the [handle] record of a
   cancellable entry, which must be a stand-alone mutable cell because it
   escapes to the caller (cancellation does not hold the queue). Entries
   nobody cancels share the [never] handle and allocate nothing. *)
type 'a t = {
  mutable heap_keys : float array;
  mutable heap_slots : int array;
  mutable seqs : int array;  (* per-slot seq; repurposed as next-free link *)
  mutable vals : 'a array;  (* per-slot value *)
  mutable handles : handle array;  (* per-slot handle *)
  mutable used : int;
  mutable next_seq : int;
  mutable free_head : int;  (* head of the free-slot list; -1 when full *)
  mutable last_slot : int;  (* slot of the entry removed by the last pop *)
}

let create () =
  {
    heap_keys = [||];
    heap_slots = [||];
    seqs = [||];
    vals = [||];
    handles = [||];
    used = 0;
    next_seq = 0;
    free_head = -1;
    last_slot = -1;
  }

(* Double the capacity with one [Array.make] + [Array.blit] per array — no
   throwaway intermediate like the old [Array.append] growth. The fresh
   slots are filled with the entry being inserted, so no dummy element is
   ever needed, and they are chained onto the free list. *)
let[@inline never] grow q value handle =
  let cap = Array.length q.heap_keys in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let heap_keys = Array.make ncap 0.0 in
  Array.blit q.heap_keys 0 heap_keys 0 cap;
  let heap_slots = Array.make ncap 0 in
  Array.blit q.heap_slots 0 heap_slots 0 cap;
  let seqs = Array.make ncap 0 in
  Array.blit q.seqs 0 seqs 0 cap;
  let vals = Array.make ncap value in
  Array.blit q.vals 0 vals 0 cap;
  let handles = Array.make ncap handle in
  Array.blit q.handles 0 handles 0 cap;
  for slot = cap to ncap - 2 do
    seqs.(slot) <- slot + 1
  done;
  seqs.(ncap - 1) <- q.free_head;
  q.free_head <- cap;
  q.heap_keys <- heap_keys;
  q.heap_slots <- heap_slots;
  q.seqs <- seqs;
  q.vals <- vals;
  q.handles <- handles

(* The sift loops use [Array.unsafe_get]/[unsafe_set]: every heap index is
   [< q.used <= Array.length] by the heap invariant (or a parent index
   [(i-1)/4] of one) and every slot index was issued by the free list, so
   the elided bounds checks can never fire. *)

(* Bubble the entry at [i] up to its final position; [seq] and [slot] ride
   in registers for tie-breaks and the final store. The entry's key is read
   out of [heap_keys.(i)] rather than passed as an argument: a float
   parameter would be boxed at this (non-inlined) call boundary, whereas
   the flat-array store the caller just did is free. *)
let sift_up q i seq slot =
  let heap_keys = q.heap_keys and heap_slots = q.heap_slots and seqs = q.seqs in
  let key = Array.unsafe_get heap_keys i in
  let i = ref i in
  let climbing = ref true in
  while !climbing && !i > 0 do
    let parent = (!i - 1) / 4 in
    let pk = Array.unsafe_get heap_keys parent in
    if
      key < pk
      || (key = pk && seq < Array.unsafe_get seqs (Array.unsafe_get heap_slots parent))
    then begin
      Array.unsafe_set heap_keys !i pk;
      Array.unsafe_set heap_slots !i (Array.unsafe_get heap_slots parent);
      i := parent
    end
    else climbing := false
  done;
  Array.unsafe_set heap_keys !i key;
  Array.unsafe_set heap_slots !i slot

(* Floyd's bottom-up sift for a heap of [used] entries whose root is a
   hole: walk the hole down to a leaf promoting the minimum child at each
   level — no comparison against the displaced entry, so the one badly
   predicted branch of the classic sift-down disappears — and return the
   hole's final index. The displaced entry (which came from the leaf level
   and almost always belongs back there) is then bubbled up with
   {!sift_up}, which usually stops after a single comparison. *)
let sift_hole_down q used =
  let heap_keys = q.heap_keys and heap_slots = q.heap_slots and seqs = q.seqs in
  let i = ref 0 in
  let descending = ref true in
  while !descending do
    let first = (4 * !i) + 1 in
    if first >= used then descending := false
    else begin
      (* Minimum of the (up to four) children, key then seq. *)
      let last = first + 3 in
      let last = if last < used then last else used - 1 in
      let smallest = ref first in
      let sk = ref (Array.unsafe_get heap_keys first) in
      for c = first + 1 to last do
        let ck = Array.unsafe_get heap_keys c in
        if
          ck < !sk
          || (ck = !sk
             && Array.unsafe_get seqs (Array.unsafe_get heap_slots c)
                < Array.unsafe_get seqs (Array.unsafe_get heap_slots !smallest))
        then begin
          smallest := c;
          sk := ck
        end
      done;
      let smallest = !smallest in
      Array.unsafe_set heap_keys !i !sk;
      Array.unsafe_set heap_slots !i (Array.unsafe_get heap_slots smallest);
      i := smallest
    end
  done;
  !i

(* The handle of every entry inserted without one; never cancelled. *)
let never = { dead = false }

let none = { dead = true }

(* An insert is split in two: the inlined [push] stores the key straight
   into [heap_keys], where it stays unboxed, and the one out-of-line
   [place] copy does the rest, so an inlined schedule costs a few
   instructions at each call site instead of a copy of the whole path. *)
let[@inline never] place q seq value handle =
  let slot = q.free_head in
  q.free_head <- q.seqs.(slot);
  q.seqs.(slot) <- seq;
  q.vals.(slot) <- value;
  q.handles.(slot) <- handle;
  sift_up q q.used seq slot;
  q.used <- q.used + 1

let[@inline] push q key seq value handle =
  if q.used = Array.length q.heap_keys then grow q value handle;
  (* [used < Array.length heap_keys] once grown. *)
  Array.unsafe_set q.heap_keys q.used key;
  place q seq value handle

let[@inline] next_seq q =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  seq

let[@inline] insert q key value =
  let handle = { dead = false } in
  push q key (next_seq q) value handle;
  handle

let[@inline] add q key value = push q key (next_seq q) value never

let reserve q n =
  let first = q.next_seq in
  q.next_seq <- first + n;
  first

let[@inline] add_reserved q key ~seq value = push q key seq value never

let cancel h = h.dead <- true

(* Remove the root, restore the heap property, free its slot, and remember
   it in [last_slot] — so a popped entry can be read back through
   {!popped_key}/{!popped_value} without allocating a result cell. The
   freed slot's value survives untouched until a later insert reuses it,
   so the read-back stays valid until the next queue operation. *)
let extract_root q =
  let slot = q.heap_slots.(0) in
  let key = q.heap_keys.(0) in
  let used = q.used - 1 in
  q.used <- used;
  if used > 0 then begin
    let hole = sift_hole_down q used in
    let ms = q.heap_slots.(used) in
    q.heap_keys.(hole) <- q.heap_keys.(used);
    sift_up q hole q.seqs.(ms) ms
  end;
  q.heap_keys.(used) <- key;
  q.last_slot <- slot;
  q.seqs.(slot) <- q.free_head;
  q.free_head <- slot

let pop_min q ~horizon =
  (* Lazy deletion: cancelled roots are physically removed whenever they
     surface, horizon or not. *)
  while q.used > 0 && q.handles.(q.heap_slots.(0)).dead do
    extract_root q
  done;
  if q.used = 0 || q.heap_keys.(0) > horizon then false
  else begin
    extract_root q;
    true
  end

let[@inline] popped_key q = q.heap_keys.(q.used)
let[@inline] popped_value q = q.vals.(q.last_slot)
