(** Post-mortem analysis of execution traces: the per-stage and per-node
    summaries a user needs to see {e why} a run performed the way it did,
    and flat rows ready for CSV export. *)

type stage_summary = {
  stage : int;
  services : int;
  mean_service_time : float;  (** [nan] if the stage never served *)
  p95_service_time : float;
  total_busy : float;  (** summed service time *)
  nodes_used : int list;  (** ascending *)
}

(* lint: unused-export-ok used by table; test_grid checks it directly *)
val per_stage : Trace.t -> stages:int -> stage_summary list

val gantt_rows : Trace.t -> string list list
(** Header plus one row per service and per transfer:
    [kind; item; stage; node(s); start; finish] — feed to
    {!Aspipe_util.Csvio.write_rows} for external plotting. *)

val summary_table : Trace.t -> stages:int -> Aspipe_util.Render.Table.t
(** The per-stage summary as a printable table. *)
