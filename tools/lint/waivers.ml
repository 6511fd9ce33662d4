(* Waiver comments.

   A finding on line L is suppressed when the waiver comment

     (* lint: <slug> <free-text justification> *)

   appears on line L (trailing the flagged code) or on line L-1 (a comment
   of its own above it). The slug is the rule's waiver token (Rules.all);
   the justification is free text, and writing one is the point — every
   waiver documents an invariant exception that used to be folklore. One
   comment carries one slug; stack comments to waive several rules.

   Every entry records whether it actually suppressed a finding during a
   scan: a waiver that never fires is dead weight that could mask a future
   regression, so the driver reports unfired entries as W1 unused-waiver
   (restricted to slugs whose rules actually ran — a typed-rule waiver is
   not "unused" just because only the syntactic pass ran). *)

type entry = {
  line : int;
  slug : string;
  reasoned : bool;
  standalone : bool;  (* the comment is alone on its line *)
  mutable used : bool;
}
type t = entry list

let marker = "(* lint:"

let is_slug_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-'

(* All slugs on one line: every occurrence of the marker, first
   whitespace-separated token after it, and whether any justification
   text follows the slug before the line or the comment ends. *)
let slugs_of_line line =
  let n = String.length line in
  let rec find_from i acc =
    if i >= n then acc
    else
      match String.index_from_opt line i '(' with
      | None -> acc
      | Some j ->
          if j + String.length marker <= n && String.sub line j (String.length marker) = marker
          then begin
            let k = ref (j + String.length marker) in
            while !k < n && line.[!k] = ' ' do incr k done;
            let start = !k in
            while !k < n && is_slug_char line.[!k] do incr k done;
            let stop = !k in
            while !k < n && line.[!k] = ' ' do incr k done;
            let reasoned = !k < n && not (!k + 1 < n && line.[!k] = '*' && line.[!k + 1] = ')') in
            let acc =
              if stop > start then (String.sub line start (stop - start), reasoned) :: acc else acc
            in
            find_from stop acc
          end
          else find_from (j + 1) acc
  in
  find_from 0 []

let scan source : t =
  let lines = String.split_on_char '\n' source in
  List.concat
    (List.mapi
       (fun i line ->
         let standalone = String.starts_with ~prefix:marker (String.trim line) in
         List.map
           (fun (slug, reasoned) -> { line = i + 1; slug; reasoned; standalone; used = false })
           (slugs_of_line line))
       lines)

(* A trailing waiver covers its own line, a waiver alone on its line the
   line below. Marks the matching entry used: suppression is what a waiver
   is for, so an [allows] hit is the liveness witness W1 keys on. *)
let allows_if ok t ~line ~slug =
  let hit = ref false in
  List.iter
    (fun e ->
      if e.slug = slug && (e.line = line || (e.line = line - 1 && e.standalone)) && ok e
      then begin
        e.used <- true;
        hit := true
      end)
    t;
  !hit

let allows = allows_if (fun _ -> true)
let allows_reasoned = allows_if (fun e -> e.reasoned)

let entries t = List.map (fun e -> (e.line, e.slug, e.used)) t
