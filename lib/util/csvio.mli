(** Minimal CSV output, so experiment tables and figure series can be loaded
    into external plotting tools. RFC-4180-style quoting (fields containing
    commas, quotes or newlines are quoted; quotes doubled). *)

(* lint: unused-export-ok used by encode_rows; test_util checks it directly *)
val escape_field : string -> string

(* lint: unused-export-ok used by write_rows; test_util checks it directly *)
val encode_rows : string list list -> string
(** Rows joined with ["\n"], trailing newline included. *)

val write_rows : path:string -> string list list -> unit
(** Create/truncate [path] and write the encoded rows. *)

(* lint: unused-export-ok used by save_table; test_util checks it directly *)
val table_rows : Render.Table.t -> string list list
(** Header row followed by the data rows. *)

val save_table : dir:string -> basename:string -> Render.Table.t -> string
(** Write [dir/basename.csv] (creating [dir] if needed); returns the path. *)
