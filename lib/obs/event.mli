(** The structured-event taxonomy of the telemetry layer.

    Every observable fact a run produces — a stage servicing an item, a
    payload crossing a link, a sensor reading, an adaptation decision — is
    one immutable {!t}: a payload stamped with the virtual time it happened
    at and a per-bus sequence number that totally orders simultaneous
    events. Sinks ({!Aspipe_grid.Trace}, the JSONL writer, the Perfetto
    exporter, the metrics meter) are pure consumers of this stream. *)

type subject =
  | Node of int  (** a processor *)
  | Link of { src : int; dst : int }  (** a directed inter-node link *)
  | User_link of int  (** the user ↔ node connection *)

type payload =
  | Service_start of { item : int; stage : int; node : int }
  | Service_finish of { item : int; stage : int; node : int; start : float }
      (** [start] repeats the matching {!Service_start} time so each finish
          event is self-contained; the finish time is the event stamp. *)
  | Transfer of {
      item : int;
      from_stage : int;
      src : int;
      dst : int;
      start : float;
      bytes : float;
    }  (** delivery of an item's payload; the event stamp is the arrival. *)
  | Completion of { item : int }  (** item delivered back to the user *)
  | Sojourn of { item : int; arrival : float }
      (** the item's full user-visible residence: [arrival] is the instant
          the item entered the system (the serving layer's open-arrival
          stamp), the event stamp is its completion, so the sojourn is
          [time -. arrival]. Emitted alongside {!Completion} when the
          simulator holds an arrival stamp for the item. *)
  | Slo_window of {
      window : int;
      until : float;
      completions : int;
      violations : int;
      attained : bool;
    }
      (** one closed SLO accounting window ([window]-th, ending at [until]):
          [violations] of the [completions] in it exceeded the latency
          threshold, and [attained] says whether the window as a whole met
          its target quantile. Sparse control traffic, one event per window. *)
  | Queue_sample of { stage : int; depth : int }
      (** a stage's pending-queue depth just changed to [depth] *)
  | Calibration_sample of { stage : int; probe : int; measured : float }
  | Monitor_sample of { subject : subject; observed : float }
      (** one (noisy) sensor reading that actually arrived *)
  | Forecast_update of { subject : subject; predicted : float; observed : float }
      (** forecaster state advanced: what it predicted before seeing
          [observed] *)
  | Adaptation_considered of {
      mapping : int array;
      observed_throughput : float;
      adopted_throughput : float;
    }  (** the policy was consulted with this decision context *)
  | Adaptation_committed of {
      mapping_before : int array;
      mapping_after : int array;
      predicted_gain : float;
      migration_cost : float;
    }
  | Adaptation_rejected of { mapping : int array; observed_throughput : float }
      (** the policy answered [Keep] *)
  | Node_crashed of { node : int }
      (** the node went down: distinct from availability 0 — its in-service
          and queued items are gone *)
  | Node_recovered of { node : int }  (** the node rejoined the grid *)
  | Item_lost of { item : int; stage : int; node : int }
      (** the item was in service or queued at [stage] when [node] crashed *)
  | Item_redispatched of { item : int; stage : int; node : int }
      (** a lost item was re-entered at [stage] (now on [node]) from the
          per-stage checkpoint *)
  | Failover_committed of {
      mapping_before : int array;
      mapping_after : int array;
      items_redispatched : int;
    }  (** orphaned stages were re-mapped to survivors *)

type t = { time : float; seq : int; payload : payload }

val kind : payload -> string
(** Stable snake-case tag of the constructor ([service_finish], ...); this
    is the [type] field of the JSONL encoding, so it is part of the
    on-disk format. *)
