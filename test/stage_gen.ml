(* [Stage.balanced] with payload and state sizes, which no program sets:
   [n] stages of constant [work], named like the library's. *)

module Stage = Aspipe_skel.Stage

let balanced ?output_bytes ?state_bytes ~n ~work () =
  Array.init n (fun i ->
      Stage.make ?output_bytes ?state_bytes ~name:(Printf.sprintf "s%d" i)
        ~work:(Aspipe_util.Variate.Constant work) ())
