(** The experiment index: every reconstructed table and figure, addressable
    by id, runnable from the CLI ([experiment], [campaign]). *)

type kind = Table | Figure

type t = {
  id : string;
  kind : kind;
  title : string;
  run : quick:bool -> unit;
}

val all : t list
(** E1 … E20 in order. *)

val ids : string list
(** The ids of {!all}, in order — the single source every listing surface
    (CLI [list-experiments], [campaign --only]) derives from. *)

val to_json : unit -> Aspipe_obs.Json.t
(** Machine-readable listing: a JSON array of [{id; kind; title}]. *)

val find : string -> t option
(** Case-insensitive lookup by id. *)

val job : t -> quick:bool -> unit -> string
(** [job e ~quick] is the experiment as a pure closure: running it returns
    the experiment's complete output (banner included) as bytes instead of
    printing, via {!Aspipe_util.Out} capture. This is the unit the campaign
    runner schedules on worker domains; the experiment's own RNG, engine,
    bus and metrics are all created inside the closure, so runs are
    isolated and byte-identical however they are scheduled. *)
