(** The Chrome trace-event / Perfetto exporter.

    A collector subscribes to a bus, buffers the run's events, and renders
    them as a trace-event JSON document ([ui.perfetto.dev] or
    [chrome://tracing] open it directly):

    - each grid node is a thread track under the "grid" process; every
      service is a complete ("X") slice on its node's track;
    - an item's path across stages/nodes is a flow ("s"/"t"/"f" chain
      keyed by item id), so Perfetto draws arrows following the item;
    - transfers are slices on per-source-node tracks of the "network"
      process;
    - committed adaptations are global instant markers carrying the
      mapping change, predicted gain and migration cost in [args];
    - completions and node-availability samples render as counter tracks.

    Virtual seconds are scaled to trace microseconds. *)

type t

val create : unit -> t

val attach : t -> Bus.t -> unit
(** Subscribe the collecting sink to the bus, discarding the subscription. *)

val events_collected : t -> int

val to_string : t -> string
(** The [{"traceEvents": [...], ...}] document. *)

val write : t -> path:string -> unit
(** {!to_string} and a newline. *)

(** {2 Encoder}

    The pieces every trace-event document here is built from, shared with
    the runner profile's exporter ([Aspipe_prof.Export], process 3). *)

val us : float -> Json.t
(** Seconds as trace microseconds. *)

val base :
  name:string -> cat:string -> ph:string -> ts:float -> pid:int -> tid:int ->
  (string * Json.t) list -> Json.t
(** One event: [name], [cat], [ph], [ts] (seconds), [pid], [tid], then the
    given fields. *)

val metadata : name:string -> pid:int -> ?tid:int -> ?key:string -> Json.t -> Json.t
(** A ["M"] metadata event whose [args] is [{key: value}] ([key] defaults
    to ["name"]). *)

val document : other:(string * Json.t) list -> Json.t list -> Json.t
(** [{"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}]. *)

val save : path:string -> string -> unit
(** Write the text to [path], exactly. *)
