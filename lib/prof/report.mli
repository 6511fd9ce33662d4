(** The plain-text contention report: per-domain exclusive / await / idle
    seconds, cache traffic, GC pressure, and the top tasks by exclusive
    time. *)

val task_exclusives : Prof.timeline -> (Prof.span * float) list
(** Every [Task] span paired with its {e exclusive} seconds: duration minus
    the direct child [Task] and [Await_wait] spans nested inside it (time a
    helping worker spent on foreign tasks, or asleep, while this task was
    open). Deterministic in the span list; no particular order. *)

val render : Prof.profile -> string
(** The report. Deterministic in the profile's contents. *)
