(** A text-processing workload: tokenize → fingerprint → run-length encode,
    the kind of streaming document pipeline the skeleton literature uses for
    irregular (data-dependent) stage costs. *)

(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val tokenize : string -> string list
(** Splits on ASCII whitespace and punctuation; lowercases tokens. *)

(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val fingerprint : string list -> int
(** Order-sensitive 63-bit FNV-style digest of a token list. *)

(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val rle_encode : string -> (char * int) list
(** Maximal runs; inverse of {!rle_decode}. *)

(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val rle_decode : (char * int) list -> string
(** Raises [Invalid_argument] on non-positive run lengths. *)

(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val word_count : string -> (string * int) list
(** Token frequencies, sorted descending then alphabetically. *)

(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val random_document : Aspipe_util.Rng.t -> words:int -> string
(** Zipf-ish sampling over a fixed 64-word vocabulary. *)

(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val analysis_chain : unit -> (string, int) Aspipe_skel.Pipe.t
(** tokenize → stem-ish cleanup → fingerprint. *)
