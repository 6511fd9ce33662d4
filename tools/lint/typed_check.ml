(* The typed (Typedtree) pass: interprocedural analyses R8..R10 over a
   whole-library call graph, and W2 over the interfaces.

   The pass works on *mentions*: each top-level value's body contributes
   an edge to every other top-level value it names, keyed by
   "<short parent module>.<name>" so cross-unit [Pdot] references and
   same-unit [Pident] references land on the same node. Dynamic dispatch
   (a closure passed as a value and called elsewhere) contributes no
   edge — the analyses under-approximate reachability and say so in
   DESIGN.md's soundness caveats.

   R8  mutable-escape: a location allocated by a mutable head (ref,
       Hashtbl.create, Array.make, mutable record literal, ...) is
       flagged when it is (a) unsynchronized, (b) written somewhere, and
       (c) mention-reachable from a [Domain.spawn] body. A second, local
       form flags a function-local mutable captured by a spawned closure
       when one context writes it and another context also touches it
       (a replicated spawn counts as two contexts by itself).

   R9  spsc-discipline: for each [let r = Spsc.create ...], the push*
       call sites on [r] must sit in at most one spawn context, and the
       pop* call sites likewise, following [r] through calls to known
       top-level functions via per-parameter summaries. A ring that
       escapes into an unknown function is skipped silently.

   R10 job-purity: registry job closures and closure arguments at stage
       call heads must not write ambient mutable locations — neither
       module-level ones (transitively, through the mention graph) nor
       locals captured from the enclosing function.

   W2  unused-export: a [val] of a lib/ interface that no unit outside
       its own module names. Users are lib/, bin/, bench/ and examples/;
       test/ is not, so a value only tests call is flagged too. *)

module SS = Set.Make (String)

type input = { unit_ : Typed_load.unit_input; waivers : Waivers.t }

type lkind = Plain | Mutable_loc | Sync_loc

type gdef = {
  key : string option;  (* None for `let () = ...` and pattern bindings *)
  path : string;
  line : int;
  col : int;
  kind : lkind;
  body : Typedtree.expression;
  waivers : Waivers.t;
  ident_map : (string, string) Hashtbl.t;  (* unit top-level ident -> key *)
  in_registry : bool;
  in_job_scope : bool;
}

type spawn = {
  sp_path : string;
  sp_line : int;
  sp_col : int;
  sp_replicated : bool;  (* under a replicating iterator: N identical domains *)
  sp_bodies : Typedtree.expression list;  (* closure bodies run on the new domain *)
  sp_seeds : SS.t;  (* global keys those bodies mention *)
}

type ring = { r_ident : string; r_name : string; r_line : int; r_col : int }

type root = {
  rt_line : int;
  rt_col : int;
  rt_desc : string;
  rt_exprs : Typedtree.expression list;
}

(* Everything one body analysis produces. *)
type danal = {
  d : gdef;
  mentions : SS.t;
  gwrites : (string * Typedtree.expression) list;  (* global key, write node *)
  lwrites : (string * Typedtree.expression) list;  (* local ident key, node *)
  lment_count : (string, int) Hashtbl.t;  (* local ident key -> #mentions *)
  lmuts : (string * (string * int * int * Typedtree.expression)) list;
      (* local ident key -> name, line, col, defining rhs *)
  lclosures : (string, Typedtree.expression) Hashtbl.t;
  spawns : spawn list;  (* pre-order: outermost first *)
  rings : ring list;
  roots : root list;
}

let line_col (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

(* ------------------------------------------------- location classification *)

let classify (e : Typedtree.expression) =
  match Tast_util.head_apply e with
  | Some (parts, _) ->
      if Tast_util.matches_any Config.sync_heads parts then Sync_loc
      else if Tast_util.matches_any Config.mutable_heads parts then Mutable_loc
      else Plain
  | None -> (
      match e.exp_desc with
      | Typedtree.Texp_record { fields; _ } ->
          let mut =
            Array.exists (fun (ld, _) -> ld.Types.lbl_mut = Asttypes.Mutable) fields
          in
          if not mut then Plain
          else
            let guarded =
              Array.exists
                (fun (_, def) ->
                  match def with
                  | Typedtree.Overridden (_, fe) -> (
                      match Tast_util.head_apply fe with
                      | Some (parts, _) ->
                          Tast_util.matches_any Config.mutex_guard_heads parts
                      | None -> false)
                  | Typedtree.Kept _ -> false)
                fields
            in
            if guarded then Sync_loc else Mutable_loc
      | Typedtree.Texp_array _ -> Mutable_loc
      | _ -> Plain)

(* ------------------------------------------------------- def collection *)

let collect_unit (inp : input) ~on_def =
  let u = inp.unit_ in
  let in_registry = List.mem u.path Config.job_registry_files in
  let in_job_scope = Config.job_purity_scope u.path in
  let ident_map = Hashtbl.create 32 in
  let mk ?key ~loc body =
    let line, col = line_col loc in
    on_def
      {
        key; path = u.path; line; col; kind = classify body; body;
        waivers = inp.waivers; ident_map; in_registry; in_job_scope;
      }
  in
  let rec items parent strs =
    List.iter
      (fun (si : Typedtree.structure_item) ->
        match si.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match Tast_util.pattern_var vb.vb_pat with
                | Some id ->
                    let key = parent ^ "." ^ Ident.name id in
                    Hashtbl.replace ident_map (Tast_util.ident_key id) key;
                    mk ~key ~loc:vb.vb_pat.pat_loc vb.vb_expr
                | None -> mk ~loc:vb.vb_pat.pat_loc vb.vb_expr)
              vbs
        | Typedtree.Tstr_eval (e, _) -> mk ~loc:e.exp_loc e
        | Typedtree.Tstr_module mb -> submodule mb
        | Typedtree.Tstr_recmodule mbs -> List.iter submodule mbs
        | _ -> ())
      strs
  and submodule (mb : Typedtree.module_binding) =
    let name =
      match mb.mb_id with
      | Some id -> Ident.name id
      | None -> ( match mb.mb_name.txt with Some n -> n | None -> "_")
    in
    let rec mexpr (me : Typedtree.module_expr) =
      match me.mod_desc with
      | Typedtree.Tmod_structure s -> items name s.str_items
      | Typedtree.Tmod_constraint (inner, _, _, _) -> mexpr inner
      | _ -> ()
    in
    mexpr mb.mb_expr
  in
  items u.modname u.structure.str_items

(* --------------------------------------------------------- name resolution *)

(* Resolve a use of [p] to a global key: same-unit references are [Pident]
   and go through the unit's ident map; cross-unit references are [Pdot]
   and key on the last two path components (mangling stripped). *)
let resolver kind_of (d : gdef) (p : Path.t) =
  match p with
  | Path.Pident id -> Hashtbl.find_opt d.ident_map (Tast_util.ident_key id)
  | _ -> (
      match List.rev (Tast_util.flatten_path p) with
      | name :: m :: _ ->
          let key = Tast_util.short_module_name m ^ "." ^ name in
          if Hashtbl.mem kind_of key then Some key else None
      | _ -> None)

(* ------------------------------------------------------- per-def analysis *)

let is_spsc_neutral parts =
  (* Any other Spsc operation (close_push, length, ...) neither pushes nor
     pops but is a legitimate, accounted use of the ring. *)
  match List.rev parts with _ :: m :: _ -> m = "Spsc" | _ -> false

let collect_lets (d : gdef) lclosures lmuts rings =
  Tast_util.iter_expressions
    (fun e ->
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_let (_, vbs, _) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              match Tast_util.pattern_var vb.vb_pat with
              | None -> ()
              | Some id ->
                  let k = Tast_util.ident_key id in
                  if Tast_util.is_function vb.vb_expr then
                    Hashtbl.replace lclosures k vb.vb_expr;
                  (match Tast_util.head_apply vb.vb_expr with
                  | Some (parts, _)
                    when Tast_util.ends_with ~suffix:Config.spsc_create_suffix parts ->
                      let line, col = line_col vb.vb_pat.pat_loc in
                      rings :=
                        { r_ident = k; r_name = Ident.name id; r_line = line; r_col = col }
                        :: !rings
                  | _ -> ());
                  if classify vb.vb_expr = Mutable_loc then begin
                    let line, col = line_col vb.vb_pat.pat_loc in
                    lmuts := (k, (Ident.name id, line, col, vb.vb_expr)) :: !lmuts
                  end)
            vbs
      | _ -> ())
    d.body

(* Spawn sites, with replication flags and closure-body routing: the arg
   of [Domain.spawn worker] is just an ident, so the spawned code is the
   local closure [worker] — and transitively any local closure those
   bodies mention, so writes inside helpers called from the domain are
   attributed to the spawn context. *)
let collect_spawns (d : gdef) resolve lclosures =
  let spawns = ref [] in
  let repl = ref false in
  let closure_of (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, _) ->
        Hashtbl.find_opt lclosures (Tast_util.ident_key id)
    | _ -> None
  in
  let bodies_and_seeds arg =
    let seen = Hashtbl.create 8 in
    let bodies = ref [] and seeds = ref SS.empty in
    let rec add (e : Typedtree.expression) =
      if not (Hashtbl.mem seen e.exp_loc) then begin
        Hashtbl.replace seen e.exp_loc ();
        bodies := e :: !bodies;
        Tast_util.iter_expressions
          (fun x ->
            match x.Typedtree.exp_desc with
            | Typedtree.Texp_ident (p, _, _) -> (
                (match resolve p with Some k -> seeds := SS.add k !seeds | None -> ());
                match closure_of x with Some b -> add b | None -> ())
            | _ -> ())
          e
      end
    in
    add (match closure_of arg with Some b -> b | None -> arg);
    (List.rev !bodies, !seeds)
  in
  let expr (self : Tast_iterator.iterator) (e : Typedtree.expression) =
    match Tast_util.head_apply e with
    | Some (parts, args) when Tast_util.matches_any Config.spawn_heads parts ->
        (match Tast_util.first_positional args with
        | Some arg ->
            let bodies, seeds = bodies_and_seeds arg in
            let line, col = line_col e.exp_loc in
            spawns :=
              {
                sp_path = d.path; sp_line = line; sp_col = col;
                sp_replicated = !repl; sp_bodies = bodies; sp_seeds = seeds;
              }
              :: !spawns
        | None -> ());
        Tast_iterator.default_iterator.expr self e
    | Some (parts, _) when Tast_util.matches_any Config.replicating_heads parts -> (
        match e.exp_desc with
        | Typedtree.Texp_apply (fn, args) ->
            self.expr self fn;
            List.iter
              (fun (_, a) ->
                match a with
                | Some (a : Typedtree.expression) when Tast_util.is_function a ->
                    let saved = !repl in
                    repl := true;
                    self.expr self a;
                    repl := saved
                | Some a -> self.expr self a
                | None -> ())
              args
        | _ -> Tast_iterator.default_iterator.expr self e)
    | _ -> Tast_iterator.default_iterator.expr self e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it d.body;
  List.rev !spawns

let write_target resolve kind_of (target : Typedtree.expression) =
  match target.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> (
      match resolve p with
      | Some k ->
          if Hashtbl.find_opt kind_of k = Some Mutable_loc then `Global k else `None
      | None -> (
          match p with
          | Path.Pident id -> `Local (Tast_util.ident_key id)
          | _ -> `None))
  | _ -> `None

let analyze_def (d : gdef) resolve kind_of =
  let lclosures = Hashtbl.create 8 in
  let lmuts = ref [] and rings = ref [] in
  collect_lets d lclosures lmuts rings;
  let spawns = collect_spawns d resolve lclosures in
  let mentions = ref SS.empty in
  let gwrites = ref [] and lwrites = ref [] in
  let lment_count = Hashtbl.create 32 in
  let roots = ref [] in
  let record_write target node =
    match write_target resolve kind_of target with
    | `Global k -> gwrites := (k, node) :: !gwrites
    | `Local lk -> lwrites := (lk, node) :: !lwrites
    | `None -> ()
  in
  Tast_util.iter_expressions
    (fun e ->
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_ident (p, _, _) -> (
          (match resolve p with
          | Some k -> mentions := SS.add k !mentions
          | None -> ());
          match p with
          | Path.Pident id ->
              let k = Tast_util.ident_key id in
              Hashtbl.replace lment_count k
                (1 + Option.value ~default:0 (Hashtbl.find_opt lment_count k))
          | _ -> ())
      | Typedtree.Texp_setfield (obj, _, _, _) -> record_write obj e
      | Typedtree.Texp_apply _ -> (
          match Tast_util.head_apply e with
          | Some (parts, args) when Tast_util.matches_any Config.write_op_suffixes parts
            -> (
              match Tast_util.first_positional args with
              | Some target -> record_write target e
              | None -> ())
          | Some (parts, args)
            when d.in_job_scope && Tast_util.matches_any Config.stage_head_suffixes parts
            ->
              let line, col = line_col e.exp_loc in
              let head = String.concat "." parts in
              roots :=
                {
                  rt_line = line; rt_col = col;
                  rt_desc = Printf.sprintf "stage argument of %s" head;
                  rt_exprs = Tast_util.positional_args args;
                }
                :: !roots
          | _ -> ())
      | Typedtree.Texp_record { fields; _ } when d.in_registry ->
          Array.iter
            (fun ((ld : Types.label_description), def) ->
              match def with
              | Typedtree.Overridden (_, fe)
                when List.mem ld.lbl_name Config.job_field_names ->
                  let line, col = line_col fe.exp_loc in
                  roots :=
                    {
                      rt_line = line; rt_col = col;
                      rt_desc = Printf.sprintf "registry job field `%s`" ld.lbl_name;
                      rt_exprs = [ fe ];
                    }
                    :: !roots
              | _ -> ())
            fields
      | _ -> ())
    d.body;
  {
    d;
    mentions = !mentions;
    gwrites = !gwrites;
    lwrites = !lwrites;
    lment_count;
    lmuts = !lmuts;
    lclosures;
    spawns;
    rings = List.rev !rings;
    roots = List.rev !roots;
  }

(* -------------------------------------------------------- spawn contexts *)

type tok =
  | TCreator
  | TSpawn of int * int * bool  (* line, col, replicated *)
  | TCallee of int * int  (* call-site line/col of a summarised callee that
                             spawns internally: a distinct, unreplicated context *)

let tok_key = function
  | TCreator -> "c"
  | TSpawn (l, c, _) -> Printf.sprintf "s%d:%d" l c
  | TCallee (l, c) -> Printf.sprintf "k%d:%d" l c

let tok_weight = function TSpawn (_, _, true) -> 2 | _ -> 1

let ctx_of spawns node =
  match
    List.find_opt
      (fun s -> List.exists (fun b -> Tast_util.contains b node) s.sp_bodies)
      spawns
  with
  | Some s -> TSpawn (s.sp_line, s.sp_col, s.sp_replicated)
  | None -> TCreator

let in_spawn spawns node = ctx_of spawns node <> TCreator

let effective_contexts toks =
  let tbl = Hashtbl.create 8 in
  List.iter (fun t -> Hashtbl.replace tbl (tok_key t) t) toks;
  Hashtbl.fold (fun _ t acc -> acc + tok_weight t) tbl 0

(* ------------------------------------------------------ reporting helpers *)

let report acc (waivers : Waivers.t) ~rule ~file ~line ~col message =
  if not (Waivers.allows waivers ~line ~slug:(Rules.slug_of_rule rule)) then
    acc :=
      { Finding.rule; severity = Finding.Error; file; line; col; message } :: !acc

(* A location-level waiver excludes the location from every typed rule:
   either the typed slug or R5's syntactic one works, so an existing
   justified `shared-state-ok` keeps covering the same site. *)
let loc_waived (g : gdef) =
  let a = Waivers.allows g.waivers ~line:g.line ~slug:"domain-shared-ok" in
  let b = Waivers.allows g.waivers ~line:g.line ~slug:"shared-state-ok" in
  a || b

(* --------------------------------------------------------------- R8 global *)

(* BFS over the mention graph from every spawn's seed set; [origin] maps a
   reached key to (parent key on the shortest path, seeding spawn). *)
let domain_reach (danals : danal list) edges =
  let origin = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter
    (fun a ->
      List.iter
        (fun s ->
          SS.iter
            (fun k ->
              if not (Hashtbl.mem origin k) then begin
                Hashtbl.replace origin k (None, s);
                Queue.add k queue
              end)
            s.sp_seeds)
        a.spawns)
    danals;
  while not (Queue.is_empty queue) do
    let k = Queue.pop queue in
    let _, s = Hashtbl.find origin k in
    SS.iter
      (fun k' ->
        if not (Hashtbl.mem origin k') then begin
          Hashtbl.replace origin k' (Some k, s);
          Queue.add k' queue
        end)
      (Option.value ~default:SS.empty (Hashtbl.find_opt edges k))
  done;
  origin

let chain_to origin k =
  let rec up k acc n =
    if n > 4 then "..." :: acc
    else
      match Hashtbl.find_opt origin k with
      | Some (Some p, _) -> up p (p :: acc) (n + 1)
      | _ -> acc
  in
  up k [] 0

let check_r8_globals acc danals kind_of loc_def edges =
  let written =
    List.fold_left
      (fun s a -> List.fold_left (fun s (k, _) -> SS.add k s) s a.gwrites)
      SS.empty danals
  in
  let origin = domain_reach danals edges in
  Hashtbl.iter
    (fun k kind ->
      if kind = Mutable_loc && SS.mem k written then
        match Hashtbl.find_opt origin k with
        | None -> ()
        | Some (_, s) -> (
            match Hashtbl.find_opt loc_def k with
            | None -> ()
            | Some g ->
                if not (loc_waived g) then
                  let via =
                    match chain_to origin k with
                    | [] -> ""
                    | path -> Printf.sprintf " via %s" (String.concat " -> " path)
                  in
                  report acc g.waivers ~rule:"R8" ~file:g.path ~line:g.line ~col:g.col
                    (Printf.sprintf
                       "`%s` is an unsynchronized mutable location written in this \
                        tree and reachable from the domain spawned at %s:%d%s; make \
                        it Atomic.t/Domain.DLS or keep it out of spawned closures \
                        (waive with `(* lint: domain-shared-ok ... *)`)"
                       k s.sp_path s.sp_line via))
    )
    kind_of

(* ---------------------------------------------------------------- R8 local *)

let check_r8_locals acc (a : danal) =
  List.iter
    (fun (lk, (name, line, col, _)) ->
      let write_nodes = List.filter (fun (k, _) -> k = lk) a.lwrites in
      if write_nodes <> [] then begin
        let write_toks = List.map (fun (_, n) -> ctx_of a.spawns n) write_nodes in
        (* Every mention is a touch; the write targets are mentions too, so
           the write contexts are automatically included. *)
        let touch_toks = ref [] in
        Tast_util.iter_expressions
          (fun e ->
            match e.Typedtree.exp_desc with
            | Typedtree.Texp_ident (Path.Pident id, _, _)
              when Tast_util.ident_key id = lk ->
                touch_toks := ctx_of a.spawns e :: !touch_toks
            | _ -> ())
          a.d.body;
        let spawn_touched =
          List.exists (function TSpawn _ -> true | _ -> false) !touch_toks
        in
        if spawn_touched && effective_contexts !touch_toks >= 2 then
          let sp =
            match
              List.find_opt (function TSpawn _ -> true | _ -> false)
                (write_toks @ !touch_toks)
            with
            | Some (TSpawn (l, _, _)) -> Printf.sprintf "%s:%d" a.d.path l
            | _ -> "?"
          in
          if not (Waivers.allows a.d.waivers ~line ~slug:"shared-state-ok") then
            report acc a.d.waivers ~rule:"R8" ~file:a.d.path ~line ~col
              (Printf.sprintf
                 "local mutable `%s` is written in one domain context and touched \
                  in another (spawn at %s); share it through a ring or Atomic, or \
                  waive with `(* lint: domain-shared-ok ... *)` if accesses are \
                  disjoint or ordered by join"
                 name sp)
      end)
    a.lmuts

(* ------------------------------------------------------------ R9 summaries *)

type pinfo = {
  mutable push_d : bool;  (* pushes in the caller's own context *)
  mutable push_s : bool;  (* pushes inside a spawn of its own *)
  mutable pop_d : bool;
  mutable pop_s : bool;
  mutable esc : bool;  (* flows somewhere the analysis cannot follow *)
}

let fresh_pinfo () = { push_d = false; push_s = false; pop_d = false; pop_s = false; esc = false }

type summary = { params : (Asttypes.arg_label * string option) list; infos : pinfo array }

(* Match a call-site argument list against a summary's parameter list:
   labelled arguments by label name, positional ones in order. *)
let param_index (s : summary) (label : Asttypes.arg_label) ~pos_index =
  let labelled name =
    let rec find i = function
      | [] -> None
      | (Asttypes.Labelled l, _) :: _ when l = name -> Some i
      | (Asttypes.Optional l, _) :: _ when l = name -> Some i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 s.params
  in
  match label with
  | Asttypes.Nolabel ->
      let rec find i seen = function
        | [] -> None
        | (Asttypes.Nolabel, _) :: _ when seen = pos_index -> Some i
        | (Asttypes.Nolabel, _) :: rest -> find (i + 1) (seen + 1) rest
        | _ :: rest -> find (i + 1) seen rest
      in
      find 0 0 s.params
  | Asttypes.Labelled l | Asttypes.Optional l -> labelled l

let build_summaries (danals : danal list) resolve_for =
  let summaries : (string, summary) Hashtbl.t = Hashtbl.create 64 in
  let bodies = Hashtbl.create 64 in
  List.iter
    (fun (a : danal) ->
      match a.d.key with
      | Some k ->
          let params, body = Tast_util.lambda_params a.d.body in
          if params <> [] then begin
            let params =
              List.map
                (fun (l, id) -> (l, Option.map Tast_util.ident_key id))
                params
            in
            Hashtbl.replace summaries k
              { params; infos = Array.init (List.length params) (fun _ -> fresh_pinfo ()) };
            Hashtbl.replace bodies k (a, body)
          end
      | None -> ())
    danals;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 6 do
    changed := false;
    incr rounds;
    Hashtbl.iter
      (fun k (a, body) ->
        let s = Hashtbl.find summaries k in
        let resolve = resolve_for a.d in
        let param_tbl = Hashtbl.create 8 in
        List.iteri
          (fun i (_, id) ->
            match id with Some ik -> Hashtbl.replace param_tbl ik i | None -> ())
          s.params;
        let accounted = Hashtbl.create 8 in
        let account ik =
          Hashtbl.replace accounted ik
            (1 + Option.value ~default:0 (Hashtbl.find_opt accounted ik))
        in
        let set cell v = if v && not cell then changed := true in
        let mark_push p sp =
          if sp then (set p.push_s true; p.push_s <- true)
          else (set p.push_d true; p.push_d <- true)
        and mark_pop p sp =
          if sp then (set p.pop_s true; p.pop_s <- true)
          else (set p.pop_d true; p.pop_d <- true)
        and mark_esc p = set p.esc true; p.esc <- true in
        let param_of (e : Typedtree.expression) =
          match e.exp_desc with
          | Typedtree.Texp_ident (Path.Pident id, _, _) ->
              let ik = Tast_util.ident_key id in
              Option.map (fun i -> (ik, i)) (Hashtbl.find_opt param_tbl ik)
          | _ -> None
        in
        Tast_util.iter_expressions
          (fun e ->
            match Tast_util.head_apply e with
            | Some (parts, args) ->
                let sp = in_spawn a.spawns e in
                let pushes = Tast_util.matches_any Config.spsc_push_suffixes parts in
                let pops = Tast_util.matches_any Config.spsc_pop_suffixes parts in
                if pushes || pops then (
                  match Tast_util.first_positional args with
                  | Some t -> (
                      match param_of t with
                      | Some (ik, i) ->
                          account ik;
                          let p = s.infos.(i) in
                          if pushes then mark_push p sp else mark_pop p sp
                      | None -> ())
                  | None -> ())
                else if is_spsc_neutral parts then
                  List.iter
                    (fun (_, arg) ->
                      match arg with
                      | Some arg -> (
                          match param_of arg with
                          | Some (ik, _) -> account ik
                          | None -> ())
                      | None -> ())
                    args
                else
                  let callee =
                    match e.exp_desc with
                    | Typedtree.Texp_apply
                        ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, _) -> (
                        match resolve p with
                        | Some k' -> Hashtbl.find_opt summaries k'
                        | None -> None)
                    | _ -> None
                  in
                  let pos = ref (-1) in
                  List.iter
                    (fun (label, arg) ->
                      match arg with
                      | None -> ()
                      | Some arg -> (
                          if label = Asttypes.Nolabel then incr pos;
                          match param_of arg with
                          | None -> ()
                          | Some (ik, i) -> (
                              let p = s.infos.(i) in
                              match callee with
                              | None -> ()  (* unknown use: caught by counting *)
                              | Some cs -> (
                                  match param_index cs label ~pos_index:!pos with
                                  | None -> ()
                                  | Some j ->
                                      account ik;
                                      let q = cs.infos.(j) in
                                      if q.esc then mark_esc p;
                                      if q.push_d || q.push_s then
                                        mark_push p (sp || q.push_s);
                                      if q.pop_d || q.pop_s then
                                        mark_pop p (sp || q.pop_s)))))
                    args
            | None -> ())
          body;
        (* Any param mention not accounted for is an escape. *)
        Hashtbl.iter
          (fun ik i ->
            let total =
              Option.value ~default:0 (Hashtbl.find_opt a.lment_count ik)
            in
            let used = Option.value ~default:0 (Hashtbl.find_opt accounted ik) in
            if total > used then mark_esc s.infos.(i))
          param_tbl)
      bodies
  done;
  summaries

(* ---------------------------------------------------------------- R9 rings *)

let check_r9 acc (a : danal) resolve summaries =
  if a.rings <> [] then begin
    let ring_tbl = Hashtbl.create 4 in
    List.iter (fun r -> Hashtbl.replace ring_tbl r.r_ident r) a.rings;
    let producers = Hashtbl.create 4 and consumers = Hashtbl.create 4 in
    let escaped = Hashtbl.create 4 in
    let accounted = Hashtbl.create 8 in
    let account ik =
      Hashtbl.replace accounted ik
        (1 + Option.value ~default:0 (Hashtbl.find_opt accounted ik))
    in
    let add tbl r t =
      Hashtbl.replace tbl r.r_ident (t :: Option.value ~default:[] (Hashtbl.find_opt tbl r.r_ident))
    in
    let ring_of (e : Typedtree.expression) =
      match e.exp_desc with
      | Typedtree.Texp_ident (Path.Pident id, _, _) ->
          Hashtbl.find_opt ring_tbl (Tast_util.ident_key id)
      | _ -> None
    in
    Tast_util.iter_expressions
      (fun e ->
        match Tast_util.head_apply e with
        | None -> ()
        | Some (parts, args) ->
            let pushes = Tast_util.matches_any Config.spsc_push_suffixes parts in
            let pops = Tast_util.matches_any Config.spsc_pop_suffixes parts in
            if pushes || pops then (
              match Tast_util.first_positional args with
              | Some t -> (
                  match ring_of t with
                  | Some r ->
                      account r.r_ident;
                      let tok = ctx_of a.spawns e in
                      if pushes then add producers r tok else add consumers r tok
                  | None -> ())
              | None -> ())
            else if is_spsc_neutral parts then
              List.iter
                (fun (_, arg) ->
                  match arg with
                  | Some arg -> (
                      match ring_of arg with
                      | Some r -> account r.r_ident
                      | None -> ())
                  | None -> ())
                args
            else begin
              let callee =
                match e.exp_desc with
                | Typedtree.Texp_apply
                    ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, _) -> (
                    match resolve p with
                    | Some k' -> Hashtbl.find_opt summaries k'
                    | None -> None)
                | _ -> None
              in
              let pos = ref (-1) in
              List.iter
                (fun (label, arg) ->
                  match arg with
                  | None -> ()
                  | Some arg -> (
                      if label = Asttypes.Nolabel then incr pos;
                      match ring_of arg with
                      | None -> ()
                      | Some r -> (
                          match callee with
                          | None -> ()  (* unknown call: caught by counting *)
                          | Some cs -> (
                              match param_index cs label ~pos_index:!pos with
                              | None -> ()
                              | Some j ->
                                  account r.r_ident;
                                  let q = cs.infos.(j) in
                                  if q.esc then Hashtbl.replace escaped r.r_ident ();
                                  let line, col = line_col e.exp_loc in
                                  let here = ctx_of a.spawns e in
                                  if q.push_d then add producers r here;
                                  if q.pop_d then add consumers r here;
                                  if q.push_s then
                                    add producers r
                                      (match here with
                                      | TCreator -> TCallee (line, col)
                                      | t -> t);
                                  if q.pop_s then
                                    add consumers r
                                      (match here with
                                      | TCreator -> TCallee (line, col)
                                      | t -> t)))))
                args
            end)
      a.d.body;
    List.iter
      (fun r ->
        let total =
          Option.value ~default:0 (Hashtbl.find_opt a.lment_count r.r_ident)
        in
        let used = Option.value ~default:0 (Hashtbl.find_opt accounted r.r_ident) in
        let escapes = Hashtbl.mem escaped r.r_ident || total > used in
        if not escapes then begin
          let check side tbl =
            let toks = Option.value ~default:[] (Hashtbl.find_opt tbl r.r_ident) in
            let n = effective_contexts toks in
            if n > 1 then
              report acc a.d.waivers ~rule:"R9" ~file:a.d.path ~line:r.r_line
                ~col:r.r_col
                (Printf.sprintf
                   "ring `%s` has %d %s-side spawn contexts; Spsc is only correct \
                    with a single %s (waive with `(* lint: spsc-ok ... *)`)"
                   r.r_name n side side)
          in
          check "producer" producers;
          check "consumer" consumers
        end)
      a.rings
  end

(* ------------------------------------------------------------------- R10 *)

let bfs_from seeds edges =
  let seen = Hashtbl.create 32 in
  let queue = Queue.create () in
  SS.iter
    (fun k ->
      Hashtbl.replace seen k ();
      Queue.add k queue)
    seeds;
  while not (Queue.is_empty queue) do
    let k = Queue.pop queue in
    SS.iter
      (fun k' ->
        if not (Hashtbl.mem seen k') then begin
          Hashtbl.replace seen k' ();
          Queue.add k' queue
        end)
      (Option.value ~default:SS.empty (Hashtbl.find_opt edges k))
  done;
  seen

let check_r10 acc (a : danal) resolve kind_of loc_def edges writes_of =
  List.iter
    (fun (rt : root) ->
      let inside node = List.exists (fun r -> Tast_util.contains r node) rt.rt_exprs in
      let reported = Hashtbl.create 4 in
      let flag target ~via =
        if not (Hashtbl.mem reported target) then begin
          Hashtbl.replace reported target ();
          let excluded =
            match Hashtbl.find_opt loc_def target with
            | Some g -> loc_waived g
            | None -> false
          in
          if not excluded then
            report acc a.d.waivers ~rule:"R10" ~file:a.d.path ~line:rt.rt_line
              ~col:rt.rt_col
              (Printf.sprintf
                 "%s writes ambient mutable `%s`%s; job and stage closures must \
                  be write-pure (route output through Out capture or Atomic/DLS, \
                  or waive with `(* lint: impure-job-ok ... *)`)"
                 rt.rt_desc target
                 (match via with
                 | None -> ""
                 | Some v -> Printf.sprintf " via `%s`" v))
        end
      in
      (* direct writes in the closure body *)
      List.iter (fun (k, node) -> if inside node then flag k ~via:None) a.gwrites;
      (* transitive writes through the mention graph *)
      let seeds = ref SS.empty in
      List.iter
        (fun r ->
          Tast_util.iter_expressions
            (fun x ->
              match x.Typedtree.exp_desc with
              | Typedtree.Texp_ident (p, _, _) -> (
                  match resolve p with
                  | Some k -> seeds := SS.add k !seeds
                  | None -> ())
              | _ -> ())
            r)
        rt.rt_exprs;
      let reach = bfs_from !seeds edges in
      Hashtbl.iter
        (fun k () ->
          SS.iter
            (fun t ->
              if Hashtbl.find_opt kind_of t = Some Mutable_loc then
                flag t ~via:(Some k))
            (Option.value ~default:SS.empty (Hashtbl.find_opt writes_of k)))
        reach;
      (* captured locals of the enclosing function *)
      List.iter
        (fun (lk, node) ->
          if inside node then
            match List.assoc_opt lk a.lmuts with
            | Some (name, _, _, defnode) when not (inside defnode) ->
                if
                  not
                    (Waivers.allows a.d.waivers ~line:rt.rt_line
                       ~slug:"impure-job-ok")
                then
                  report acc a.d.waivers ~rule:"R10" ~file:a.d.path ~line:rt.rt_line
                    ~col:rt.rt_col
                    (Printf.sprintf
                       "%s writes captured local mutable `%s`; job and stage \
                        closures must be write-pure (waive with `(* lint: \
                        impure-job-ok ... *)`)"
                       rt.rt_desc name)
            | _ -> ())
        a.lwrites)
    a.roots

(* -------------------------------------------------------------------- W2 *)

(* Every value path a unit names, as mangling-stripped components, with
   its module aliases ([module X = Aspipe_y.Z], also under [let module])
   expanded to the aliased path. *)
let unit_mentions (u : Typed_load.unit_input) =
  let aliases = Hashtbl.create 8 in
  let rec modules (p : Path.t) =
    match p with
    | Path.Pident id -> (
        match Hashtbl.find_opt aliases (Tast_util.ident_key id) with
        | Some target -> target
        | None -> [ Tast_util.short_module_name (Ident.name id) ])
    | Path.Pdot (p, s) -> modules p @ [ Tast_util.short_module_name s ]
    | Path.Papply (p, _) | Path.Pextra_ty (p, _) -> modules p
  in
  let rec alias_target (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Typedtree.Tmod_ident (p, _) -> Some (modules p)
    | Typedtree.Tmod_constraint (inner, _, _, _) -> alias_target inner
    | _ -> None
  in
  let add_alias id me =
    match (id, alias_target me) with
    | Some id, Some target -> Hashtbl.replace aliases (Tast_util.ident_key id) target
    | _ -> ()
  in
  let mentions = ref [] in
  let module_binding self (mb : Typedtree.module_binding) =
    add_alias mb.mb_id mb.mb_expr;
    Tast_iterator.default_iterator.module_binding self mb
  in
  let expr self (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_ident (Path.Pdot (m, v), _, _) -> mentions := (modules m @ [ v ]) :: !mentions
    | Typedtree.Texp_letmodule (id, _, _, me, _) -> add_alias id me
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let it = { Tast_iterator.default_iterator with module_binding; expr } in
  it.structure it u.structure;
  !mentions

(* The [val]s of an interface, nested signatures included, keyed by their
   dotted path from the unit ("Analytic.Incr.make"). *)
let exports (intf : Typed_load.interface) =
  let rec items prefix acc (sg : Typedtree.signature) =
    List.fold_left
      (fun acc (si : Typedtree.signature_item) ->
        match si.sig_desc with
        | Typedtree.Tsig_value vd -> (prefix ^ "." ^ vd.val_name.txt, vd.val_loc) :: acc
        | Typedtree.Tsig_module
            {
              md_name = { txt = Some name; _ };
              md_type = { mty_desc = Typedtree.Tmty_signature sg; _ };
              _;
            } ->
            items (prefix ^ "." ^ name) acc sg
        | _ -> acc)
      acc sg.sig_items
  in
  List.rev (items intf.imodname [] intf.signature)

let unused_exports (interfaces : (Typed_load.interface * Waivers.t) list)
    (units : Typed_load.unit_input list) =
  let exported = Hashtbl.create 512 in
  List.iter
    (fun (i, _) -> List.iter (fun (k, _) -> Hashtbl.replace exported k ()) (exports i))
    interfaces;
  (* export key -> the units naming it; a mention [A.B.c] may name the
     export "A.B.c" or, when A is a library wrapper, "B.c" *)
  let users = Hashtbl.create 512 in
  List.iter
    (fun (u : Typed_load.unit_input) ->
      if Config.export_user u.path then
        List.iter
          (fun parts ->
            let rec suffixes = function
              | [] | [ _ ] -> ()
              | _ :: rest as parts ->
                  let k = String.concat "." parts in
                  if Hashtbl.mem exported k then
                    Hashtbl.replace users k
                      (SS.add u.path
                         (Option.value ~default:SS.empty (Hashtbl.find_opt users k)));
                  suffixes rest
            in
            suffixes parts)
          (unit_mentions u))
    units;
  List.concat_map
    (fun ((i : Typed_load.interface), waivers) ->
      let own = Filename.remove_extension i.ipath ^ ".ml" in
      List.filter_map
        (fun (k, loc) ->
          let line, col = line_col loc in
          let outside =
            SS.remove own (Option.value ~default:SS.empty (Hashtbl.find_opt users k))
          in
          if
            SS.is_empty outside
            && not (Waivers.allows_reasoned waivers ~line ~slug:"unused-export-ok")
          then
            Some
              {
                Finding.rule = "W2"; severity = Finding.Error; file = i.ipath; line; col;
                message =
                  Printf.sprintf
                    "`%s` is exported but no unit outside %s names it (lib/, bin/, \
                     bench/ and examples/ count, test/ does not); delete it, drop it \
                     from the interface, or waive with `(* lint: unused-export-ok \
                     <reason> *)` naming the public API or differential test it serves"
                    k own;
              }
          else None)
        (exports i))
    interfaces
  |> List.sort Finding.compare

(* -------------------------------------------------------------------- run *)

let run (inputs : input list) =
  let kind_of : (string, lkind) Hashtbl.t = Hashtbl.create 256 in
  let loc_def : (string, gdef) Hashtbl.t = Hashtbl.create 64 in
  let defs = ref [] in
  List.iter
    (fun inp ->
      collect_unit inp ~on_def:(fun d ->
          defs := d :: !defs;
          match d.key with
          | None -> ()
          | Some k -> (
              (match Hashtbl.find_opt kind_of k with
              | None -> Hashtbl.replace kind_of k d.kind
              | Some Plain when d.kind <> Plain -> Hashtbl.replace kind_of k d.kind
              | Some _ -> ());
              match d.kind with
              | Mutable_loc ->
                  if not (Hashtbl.mem loc_def k) then Hashtbl.replace loc_def k d
              | _ -> ())))
    inputs;
  let defs = List.rev !defs in
  let resolve_for d = resolver kind_of d in
  let danals = List.map (fun d -> analyze_def d (resolve_for d) kind_of) defs in
  (* mention graph and write table, merged per key *)
  let edges = Hashtbl.create 256 and writes_of = Hashtbl.create 64 in
  List.iter
    (fun a ->
      match a.d.key with
      | None -> ()
      | Some k ->
          Hashtbl.replace edges k
            (SS.union a.mentions
               (Option.value ~default:SS.empty (Hashtbl.find_opt edges k)));
          let w = List.fold_left (fun s (t, _) -> SS.add t s) SS.empty a.gwrites in
          Hashtbl.replace writes_of k
            (SS.union w (Option.value ~default:SS.empty (Hashtbl.find_opt writes_of k))))
    danals;
  let summaries = build_summaries danals resolve_for in
  let acc = ref [] in
  check_r8_globals acc danals kind_of loc_def edges;
  List.iter
    (fun a ->
      check_r8_locals acc a;
      check_r9 acc a (resolve_for a.d) summaries;
      check_r10 acc a (resolve_for a.d) kind_of loc_def edges writes_of)
    danals;
  let sorted = List.sort Finding.compare !acc in
  (* drop exact duplicates (e.g. the same target reached from two roots on
     one line) *)
  let rec dedup = function
    | a :: b :: rest when Finding.compare a b = 0 -> dedup (b :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup sorted
