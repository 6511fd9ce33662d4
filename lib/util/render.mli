(** ASCII rendering for the experiment harness: tables matching the paper's
    layout, and figure series as both [(x, y)] listings and quick line plots
    so the shape of each reproduced figure is visible in a terminal. *)

module Table : sig
  type t

  val create : title:string -> columns:string list -> t
  val add_row : t -> string list -> unit
  (** Raises [Invalid_argument] if the row width differs from the header. *)

  val add_float_row : t -> ?precision:int -> (string * float list) -> unit
  (** [add_float_row t (label, values)] — convenience for numeric rows.
      NaN renders as ["-"]: an absent measurement, not a number. *)

  val columns : t -> string list
  val rows : t -> string list list
  (** Rows in insertion order. *)

  val to_string : t -> string
  val print : t -> unit
end

module Series : sig
  type t = { label : string; points : (float * float) array }

  val make : string -> (float * float) array -> t
end

val print_figure :
  title:string -> ?x_label:string -> ?y_label:string -> Series.t list -> unit
(** Prints each series as aligned [(x, y)] columns followed by a compact
    ASCII plot (all series overlaid, one glyph per series). *)

(* lint: unused-export-ok used by print_figure; test_util checks it directly *)
val plot : Series.t list -> string
(** The ASCII plot alone, 64 columns by 16 rows. *)
