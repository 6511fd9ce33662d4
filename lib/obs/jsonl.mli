(** The JSONL exporter: one compact JSON object per event, one per line —
    the machine-readable twin of the bus, suitable for [jq], regression
    diffing and replay. Runs with the same seed produce byte-identical
    logs (virtual time, no wall-clock anywhere). *)

val sink_to_buffer : Buffer.t -> Bus.sink
(** A sink appending one line (with newline) per event. *)
