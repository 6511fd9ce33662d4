type subject =
  | Node of int
  | Link of { src : int; dst : int }
  | User_link of int

type payload =
  | Service_start of { item : int; stage : int; node : int }
  | Service_finish of { item : int; stage : int; node : int; start : float }
  | Transfer of {
      item : int;
      from_stage : int;
      src : int;
      dst : int;
      start : float;
      bytes : float;
    }
  | Completion of { item : int }
  | Sojourn of { item : int; arrival : float }
  | Slo_window of {
      window : int;
      until : float;
      completions : int;
      violations : int;
      attained : bool;
    }
  | Queue_sample of { stage : int; depth : int }
  | Calibration_sample of { stage : int; probe : int; measured : float }
  | Monitor_sample of { subject : subject; observed : float }
  | Forecast_update of { subject : subject; predicted : float; observed : float }
  | Adaptation_considered of {
      mapping : int array;
      observed_throughput : float;
      adopted_throughput : float;
    }
  | Adaptation_committed of {
      mapping_before : int array;
      mapping_after : int array;
      predicted_gain : float;
      migration_cost : float;
    }
  | Adaptation_rejected of { mapping : int array; observed_throughput : float }
  | Node_crashed of { node : int }
  | Node_recovered of { node : int }
  | Item_lost of { item : int; stage : int; node : int }
  | Item_redispatched of { item : int; stage : int; node : int }
  | Failover_committed of {
      mapping_before : int array;
      mapping_after : int array;
      items_redispatched : int;
    }

type t = { time : float; seq : int; payload : payload }

let kind = function
  | Service_start _ -> "service_start"
  | Service_finish _ -> "service_finish"
  | Transfer _ -> "transfer"
  | Completion _ -> "completion"
  | Sojourn _ -> "sojourn"
  | Slo_window _ -> "slo_window"
  | Queue_sample _ -> "queue_sample"
  | Calibration_sample _ -> "calibration_sample"
  | Monitor_sample _ -> "monitor_sample"
  | Forecast_update _ -> "forecast_update"
  | Adaptation_considered _ -> "adaptation_considered"
  | Adaptation_committed _ -> "adaptation_committed"
  | Adaptation_rejected _ -> "adaptation_rejected"
  | Node_crashed _ -> "node_crashed"
  | Node_recovered _ -> "node_recovered"
  | Item_lost _ -> "item_lost"
  | Item_redispatched _ -> "item_redispatched"
  | Failover_committed _ -> "failover_committed"
