module Rng = Aspipe_util.Rng
module Variate = Aspipe_util.Variate
module Stats = Aspipe_util.Stats
module Stage = Aspipe_skel.Stage

type estimate = { mean_work : float; stddev : float; samples : int }

type t = { per_stage : estimate array }

let run ?(probes = 5) ?(measurement_noise = 0.01) ?bus ~rng stages =
  if probes < 1 then invalid_arg "Calibration.run: need at least one probe";
  if measurement_noise < 0.0 then invalid_arg "Calibration.run: negative noise";
  let probe_stage stage_index (stage : Stage.t) =
    let acc = Stats.Welford.create () in
    for probe = 1 to probes do
      (* One probe = run one item through this stage on the reference
         processor and time it; the observed work is a draw from the stage's
         true distribution, blurred by measurement error. *)
      let true_work = Float.max 0.0 (Variate.sample rng stage.Stage.work) in
      let measured =
        if measurement_noise = 0.0 then true_work
        else Float.max 0.0 (true_work *. (1.0 +. Variate.normal rng ~mean:0.0 ~stddev:measurement_noise))
      in
      (match bus with
      | Some bus when Aspipe_obs.Bus.active bus ->
          Aspipe_obs.Bus.emit bus
            (Aspipe_obs.Event.Calibration_sample
               { stage = stage_index; probe = probe - 1; measured })
      | Some _ | None -> ());
      Stats.Welford.add acc measured
    done;
    {
      mean_work = Stats.Welford.mean acc;
      stddev = (if probes > 1 then Stats.Welford.stddev acc else 0.0);
      samples = probes;
    }
  in
  { per_stage = Array.mapi probe_stage stages }

let work_vector t = Array.map (fun e -> e.mean_work) t.per_stage

let relative_error t stages =
  if Array.length stages <> Array.length t.per_stage then
    invalid_arg "Calibration.relative_error: stage count mismatch";
  Array.mapi
    (fun i (stage : Stage.t) ->
      let truth = Stage.mean_work stage in
      if truth <= 0.0 then 0.0 else Float.abs (t.per_stage.(i).mean_work -. truth) /. truth)
    stages

let pp ppf t =
  Array.iteri
    (fun i e ->
      Format.fprintf ppf "stage %d: work ≈ %.4g ± %.2g (%d probes)@." i e.mean_work e.stddev
        e.samples)
    t.per_stage
