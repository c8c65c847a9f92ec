(* Library-wide def/use index and call graph.

   This is the data layer of the interprocedural rule families
   (lint_race): every top-level binding in the scanned files becomes a
   node, identified by its module-qualified name ("Engine.Cache.find",
   "Parwork.map"), where the module path is the capitalized source
   basename — sound because every library in lib/ is built with
   (wrapped false) — plus any nested-module prefixes.  Per node we
   record:

   - call edges: any identifier occurrence that resolves to another
     top-level binding (argument position included — passing a
     function to a combinator is reachability too);
   - cell accesses: occurrences resolving to a top-level *mutable
     cell* (ref / array / Hashtbl / Queue / Buffer / Stack / record
     with mutable fields), with Atomic.t, Mutex.t and Domain.DLS keys
     classified as safe kinds;
   - domain-crossing roots: call sites of the spawn vocabulary
     (Parwork.map/map_list/map_result/map_report, Domain.spawn,
     Engine.run_batch/run_batch_r);
   - direct float / determinism taint, reusing lint_check's name
     tables, for the transitive versions of those rules.

   Resolution is purely syntactic (no typing): [Lident x] is tried
   against the enclosing nested-module prefixes of the current
   binding, [Ldot] paths against the prefixes and then bare; `module
   Q = Rational` aliases are expanded at the head.  Unresolved names
   are dropped — locals, stdlib, parameters.  This under-approximates
   edges through higher-order parameters and first-class modules;
   lint_race compensates by treating the *enclosing* binding of a
   spawn site as the root (everything it reaches is considered to
   cross domains) and by conservatively flagging functor-generated
   modules referenced in spawn arguments, since a functor application
   has no analyzable body here.  DESIGN.md §15 spells out the
   soundness trade-offs.

   Guard recognition: a call argument is "guarded" when it sits under
   [Mutex.protect] or under a call to a wrapper whose name starts with
   [with_] and whose body takes a mutex (Engine.Cache.with_shard); a
   whole body is guarded when it takes a mutex itself
   (Failpoint.register).  Accesses and call edges carry the guard bit
   so lint_race can clear mutex-disciplined cells. *)

open Parsetree
module F = Lint_finding
module C = Lint_check

type source = {
  src_display : string;  (* path used in findings *)
  src_rel : string;      (* path relative to the scan root: scope policy *)
  src_structure : structure;
  src_allows : C.allow list;  (* from the per-file pass, shared hit counts *)
}

type cell_kind =
  | Atomic          (* Atomic.make — safe *)
  | Dls             (* Domain.DLS.new_key — safe, per-domain *)
  | Lock            (* Mutex.create — the guard itself, safe *)
  | Mutable of string  (* unsynchronized; payload names the shape *)

type cell = {
  cell_name : string;
  cell_file : string;
  cell_line : int;
  cell_kind : cell_kind;
  (* a [@lint.allow "race"] region covering the definition: the cell is
     pre-audited, every finding against it is silenced at the source *)
  cell_allow : F.suppression option;
}

type call = { callee : string; call_loc : Location.t; call_guarded : bool }
type access = { acc_cell : string; acc_guarded : bool }

type root = {
  root_fn : string;
  root_rel : string;
  root_loc : Location.t;
  root_via : string;           (* "Parwork.map", "Domain.spawn", ... *)
  root_opaques : string list;  (* functor-generated modules in the args *)
}

type fn = {
  fn_name : string;
  fn_file : string;
  fn_rel : string;
  mutable fn_calls : call list;
  mutable fn_accesses : access list;
  mutable fn_float : bool;  (* direct, unsuppressed float use in the body *)
  mutable fn_det : bool;    (* direct, unsuppressed nondeterminism *)
}

type t = {
  fns : (string, fn) Hashtbl.t;
  cells : (string, cell) Hashtbl.t;
  mutable roots : root list;
}

type stats = { nodes : int; edges : int; root_count : int; cell_count : int }

let stats g =
  {
    nodes = Hashtbl.length g.fns;
    edges = Hashtbl.fold (fun _ fn n -> n + List.length fn.fn_calls) g.fns 0;
    root_count = List.length g.roots;
    cell_count = Hashtbl.length g.cells;
  }

(* ------------------------------------------------------------------ *)
(* Per-file index: defs, aliases, functor instances, mutable fields    *)
(* ------------------------------------------------------------------ *)

type file_ctx = {
  fc_display : string;
  fc_rel : string;
  fc_allows : C.allow list;
  (* "Q" -> ["Rational"], from [module Q = Rational] *)
  aliases : (string, string list) Hashtbl.t;
  (* bare names of modules produced by functor application — opaque *)
  functor_made : (string, unit) Hashtbl.t;
  (* labels declared [mutable] anywhere in the file *)
  mutable_fields : (string, unit) Hashtbl.t;
}

let module_name_of path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let rec name_of_pat p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> name_of_pat p
  | _ -> None

let rec peel_mod me =
  match me.pmod_desc with Pmod_constraint (me, _) -> peel_mod me | _ -> me

let is_include_apply item =
  match item.pstr_desc with
  | Pstr_include { pincl_mod; _ } -> (
      match (peel_mod pincl_mod).pmod_desc with
      | Pmod_apply _ -> true
      | _ -> false)
  | _ -> false

(* Collect (qualified-name, binding) pairs in source order, populating
   the alias / functor / mutable-field tables on the way.  Functor
   bodies are skipped: their bindings have no stable qualified name
   until application, which produces no body at all — hence the
   conservative flag in lint_race. *)
let collect_defs fc str =
  let defs = ref [] in
  let rec str_items prefix items =
    List.iter (item prefix) items
  and item prefix it =
    match it.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match name_of_pat vb.pvb_pat with
            | Some n ->
                defs := (String.concat "." (List.rev (n :: prefix)), vb) :: !defs
            | None -> ())
          vbs
    | Pstr_module mb -> module_binding prefix mb
    | Pstr_recmodule mbs -> List.iter (module_binding prefix) mbs
    | Pstr_type (_, tds) ->
        List.iter
          (fun td ->
            match td.ptype_kind with
            | Ptype_record lds ->
                List.iter
                  (fun ld ->
                    match ld.pld_mutable with
                    | Asttypes.Mutable ->
                        Hashtbl.replace fc.mutable_fields ld.pld_name.txt ()
                    | Asttypes.Immutable -> ())
                  lds
            | _ -> ())
          tds
    | _ -> ()
  and module_binding prefix mb =
    match mb.pmb_name.txt with
    | None -> ()
    | Some name -> (
        match (peel_mod mb.pmb_expr).pmod_desc with
        | Pmod_structure items ->
            if List.exists is_include_apply items then
              Hashtbl.replace fc.functor_made name ();
            str_items (name :: prefix) items
        | Pmod_ident { txt; _ } ->
            Hashtbl.replace fc.aliases name (C.flatten txt)
        | Pmod_apply _ -> Hashtbl.replace fc.functor_made name ()
        | Pmod_functor _ -> ()
        | _ -> ())
  in
  str_items [ module_name_of fc.fc_display ] str;
  List.rev !defs

let expand_alias fc parts =
  match parts with
  | head :: rest -> (
      match Hashtbl.find_opt fc.aliases head with
      | Some target -> target @ rest
      | None -> parts)
  | [] -> parts

(* ------------------------------------------------------------------ *)
(* Cell classification                                                 *)
(* ------------------------------------------------------------------ *)

let container_modules = [ "Hashtbl"; "Queue"; "Buffer"; "Stack"; "Array"; "Bytes" ]

let rec peel_expr e =
  match e.pexp_desc with Pexp_constraint (e, _) -> peel_expr e | _ -> e

let classify_cell fc vb =
  match (peel_expr vb.pvb_expr).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match expand_alias fc (C.flatten txt) with
      | [ "Atomic"; "make" ] -> Some Atomic
      | [ "Domain"; "DLS"; "new_key" ] -> Some Dls
      | [ "Mutex"; "create" ] -> Some Lock
      | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some (Mutable "ref")
      | [ m; ("create" | "make" | "init") ]
        when C.mem m container_modules
             || String.ends_with ~suffix:"tbl" (String.lowercase_ascii m) ->
          Some (Mutable (String.lowercase_ascii m))
      | _ -> None)
  | Pexp_array _ -> Some (Mutable "array")
  | Pexp_record (fields, _)
    when List.exists
           (fun ((lid : Longident.t Location.loc), _) ->
             Hashtbl.mem fc.mutable_fields (C.last_of (C.flatten lid.txt)))
           fields ->
      Some (Mutable "record with mutable fields")
  | _ -> None

let race_allow_at fc (loc : Location.t) =
  let c = loc.loc_start.pos_cnum in
  List.find_map
    (fun (a : C.allow) ->
      if F.rule_equal a.a_rule F.Race && a.a_start <= c && c <= a.a_end then
        Some a.a_sup
      else None)
    fc.fc_allows

(* ------------------------------------------------------------------ *)
(* Name resolution                                                     *)
(* ------------------------------------------------------------------ *)

type resolved = R_fn of string | R_cell of string | R_unknown

(* [chain] is the nested-module prefix of the binding being walked,
   outermost first (e.g. ["Engine"; "Cache"]).  Innermost prefix wins;
   a bare unqualified name never resolves globally (one-component
   candidates only arise through a prefix). *)
let resolve g fc ~chain parts =
  let parts = expand_alias fc parts in
  let try_name name =
    if Hashtbl.mem g.fns name then Some (R_fn name)
    else if Hashtbl.mem g.cells name then Some (R_cell name)
    else None
  in
  let rec drop_last = function
    | [] | [ _ ] -> []
    | x :: tl -> x :: drop_last tl
  in
  let rec go pfx =
    match pfx with
    | [] ->
        if List.length parts >= 2 then
          match try_name (String.concat "." parts) with
          | Some r -> r
          | None -> R_unknown
        else R_unknown
    | _ -> (
        match try_name (String.concat "." (pfx @ parts)) with
        | Some r -> r
        | None -> go (drop_last pfx))
  in
  go chain

(* ------------------------------------------------------------------ *)
(* Direct taint tables (shared with the per-expression checks)         *)
(* ------------------------------------------------------------------ *)

let is_float_use parts =
  match parts with
  | [ f ] -> C.mem f C.float_ops || C.mem f C.float_funs
  | "Float" :: _ | "Stdlib" :: "Float" :: _ -> true
  | [ "Stdlib"; f ] -> C.mem f C.float_ops || C.mem f C.float_funs
  | _ -> false

let is_det_use parts =
  match parts with
  | "Random" :: _ -> true
  | [ "Sys"; "time" ] -> true
  | "Unix" :: rest -> C.mem (C.last_of rest) C.wallclock_funs
  | _ :: _ :: _ ->
      C.mem (C.last_of parts) [ "iter"; "fold" ] && C.hash_order_module parts
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Spawn vocabulary and guard idioms                                   *)
(* ------------------------------------------------------------------ *)

let spawn_of parts =
  match parts with
  | [ "Parwork"; ("map" | "map_list" | "map_result" | "map_report") ]
  | [ "Domain"; "spawn" ]
  | [ "Engine"; ("run_batch" | "run_batch_r") ] ->
      Some (String.concat "." parts)
  | _ -> None

let mentions_mutex fc body =
  let found = ref false in
  let super = Ast_iterator.default_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match expand_alias fc (C.flatten txt) with
        | [ "Mutex"; ("lock" | "protect") ] -> found := true
        | _ -> ())
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.expr it body;
  !found

let last_component name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

(* ------------------------------------------------------------------ *)
(* Use walk                                                            *)
(* ------------------------------------------------------------------ *)

let collect_opaques fc args =
  let acc = ref [] in
  let super = Ast_iterator.default_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match expand_alias fc (C.flatten txt) with
        | head :: _ :: _
          when Hashtbl.mem fc.functor_made head
               && not (C.mem head !acc) ->
            acc := head :: !acc
        | _ -> ())
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  List.iter (fun (_, a) -> it.expr it a) args;
  List.rev !acc

let walk_fn g fc ~guard_fns (fn : fn) vb =
  let chain =
    match String.split_on_char '.' fn.fn_name with
    | [] | [ _ ] -> []
    | parts -> (
        match List.rev parts with _ :: rev -> List.rev rev | [] -> [])
  in
  let depth = ref (if mentions_mutex fc vb.pvb_expr then 1 else 0) in
  let allow_active rule (loc : Location.t) =
    let c = loc.loc_start.pos_cnum in
    List.exists
      (fun (a : C.allow) ->
        F.rule_equal a.a_rule rule && a.a_start <= c && c <= a.a_end)
      fc.fc_allows
  in
  let record_use (loc : Location.t) lid =
    let parts = C.flatten lid in
    if (not fn.fn_float) && is_float_use parts
       && not (allow_active F.Float_ban loc)
    then fn.fn_float <- true;
    if (not fn.fn_det) && is_det_use parts
       && not (allow_active F.Determinism loc)
    then fn.fn_det <- true;
    match resolve g fc ~chain parts with
    | R_fn callee when not (String.equal callee fn.fn_name) ->
        fn.fn_calls <-
          { callee; call_loc = loc; call_guarded = !depth > 0 } :: fn.fn_calls
    | R_fn _ -> ()
    | R_cell c ->
        fn.fn_accesses <-
          { acc_cell = c; acc_guarded = !depth > 0 } :: fn.fn_accesses
    | R_unknown -> ()
  in
  let super = Ast_iterator.default_iterator in
  let expr it e =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
        record_use loc txt;
        super.expr it e
    | Pexp_constant (Pconst_float _) ->
        if not (allow_active F.Float_ban e.pexp_loc) then fn.fn_float <- true;
        super.expr it e
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ } as head, args) -> (
        let parts = expand_alias fc (C.flatten txt) in
        match spawn_of parts with
        | Some via ->
            g.roots <-
              {
                root_fn = fn.fn_name;
                root_rel = fc.fc_rel;
                root_loc = e.pexp_loc;
                root_via = via;
                root_opaques = collect_opaques fc args;
              }
              :: g.roots;
            super.expr it e
        | None ->
            let is_guard =
              match parts with
              | [ "Mutex"; "protect" ] -> true
              | _ -> (
                  match resolve g fc ~chain parts with
                  | R_fn q -> Hashtbl.mem guard_fns q
                  | _ -> false)
            in
            if is_guard then begin
              it.expr it head;
              incr depth;
              List.iter (fun (_, a) -> it.expr it a) args;
              decr depth
            end
            else super.expr it e)
    | _ -> super.expr it e
  in
  let it = { super with expr } in
  it.expr it vb.pvb_expr

(* ------------------------------------------------------------------ *)
(* Build                                                               *)
(* ------------------------------------------------------------------ *)

let build (sources : source list) : t =
  let g = { fns = Hashtbl.create 512; cells = Hashtbl.create 64; roots = [] } in
  let prepped =
    List.map
      (fun s ->
        let fc =
          {
            fc_display = s.src_display;
            fc_rel = s.src_rel;
            fc_allows = s.src_allows;
            aliases = Hashtbl.create 8;
            functor_made = Hashtbl.create 4;
            mutable_fields = Hashtbl.create 8;
          }
        in
        (fc, collect_defs fc s.src_structure))
      sources
  in
  (* cells first: a name is a cell or a node, never both *)
  List.iter
    (fun (fc, defs) ->
      List.iter
        (fun (qname, vb) ->
          match classify_cell fc vb with
          | Some kind ->
              let line, _ = C.line_col vb.pvb_loc in
              Hashtbl.replace g.cells qname
                {
                  cell_name = qname;
                  cell_file = fc.fc_display;
                  cell_line = line;
                  cell_kind = kind;
                  cell_allow = race_allow_at fc vb.pvb_loc;
                }
          | None -> ())
        defs)
    prepped;
  List.iter
    (fun ((fc : file_ctx), defs) ->
      List.iter
        (fun (qname, _) ->
          if not (Hashtbl.mem g.cells qname || Hashtbl.mem g.fns qname) then
            Hashtbl.replace g.fns qname
              {
                fn_name = qname;
                fn_file = fc.fc_display;
                fn_rel = fc.fc_rel;
                fn_calls = [];
                fn_accesses = [];
                fn_float = false;
                fn_det = false;
              })
        defs)
    prepped;
  let guard_fns = Hashtbl.create 16 in
  List.iter
    (fun (fc, defs) ->
      List.iter
        (fun (qname, vb) ->
          if
            Hashtbl.mem g.fns qname
            && String.starts_with ~prefix:"with_" (last_component qname)
            && mentions_mutex fc vb.pvb_expr
          then Hashtbl.replace guard_fns qname ())
        defs)
    prepped;
  List.iter
    (fun (fc, defs) ->
      List.iter
        (fun (qname, vb) ->
          match Hashtbl.find_opt g.fns qname with
          | Some fn -> walk_fn g fc ~guard_fns fn vb
          | None -> ())
        defs)
    prepped;
  (* restore source order: the walks pushed in reverse *)
  Hashtbl.iter
    (fun _ fn ->
      fn.fn_calls <- List.rev fn.fn_calls;
      fn.fn_accesses <- List.rev fn.fn_accesses)
    g.fns;
  g.roots <- List.rev g.roots;
  g
