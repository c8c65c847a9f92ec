(* The AST-level rule engine.

   A file's parsetree (compiler-libs) is walked once with an
   [Ast_iterator]; each node is checked against the rule families
   active for that file.  Suppressions are [@lint.allow "<rule>"]
   attributes: while the walk is inside an attributed node the named
   rule is silenced, and every attribute is recorded (with a hit
   count) so the JSON report enumerates all exemptions.

   The checks are deliberately syntactic — the linter runs on source,
   before types exist.  Where a type would be needed (is this [=] at a
   primitive type?) we use a conservative shape heuristic, documented
   on [operand_is_primitive] below. *)

open Parsetree
module F = Lint_finding

exception Bad_attribute of { file : string; line : int; name : string }

(* A suppression together with the source region (character offsets)
   it covers.  The per-file walk silences findings via the attribute
   stack; the interprocedural pass (lint_race) runs *after* all files
   are walked and instead asks "does an allow region for this rule
   contain this offset?" — the same attribute serves both, so hit
   counts stay unified.  A module-floating [@@@lint.allow] covers the
   rest of the file: [a_end = max_int]. *)
type allow = {
  a_rule : F.rule;
  a_start : int;
  a_end : int;
  a_sup : F.suppression;
}

type ctx = {
  file : string;
  active : F.rule list;
  mutable findings : F.t list;
  mutable suppressed : F.t list;
  mutable stack : F.suppression list;
  mutable suppressions : F.suppression list;
  mutable allows : allow list;
  (* Names let-bound anywhere in the file.  A module that defines its
     own [compare]/[equal] (bigint, rational) refers to the typed one
     with a bare identifier, which must not be flagged. *)
  locals : (string, unit) Hashtbl.t;
  (* Names of the [let rec]s whose bodies the walk is currently inside,
     innermost first — the candidates for a naked-retry re-invocation. *)
  mutable recs : string list;
}

let line_col (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

let report ctx rule (loc : Location.t) message =
  if List.exists (F.rule_equal rule) ctx.active then begin
    let line, col = line_col loc in
    let f = { F.file = ctx.file; line; col; rule; message } in
    match List.find_opt (fun s -> F.rule_equal s.F.s_rule rule) ctx.stack with
    | Some s ->
        s.F.s_hits <- s.F.s_hits + 1;
        ctx.suppressed <- f :: ctx.suppressed
    | None -> ctx.findings <- f :: ctx.findings
  end

(* ------------------------------------------------------------------ *)
(* Suppression attributes                                              *)
(* ------------------------------------------------------------------ *)

let rules_of_payload ctx (loc : Location.t) = function
  | PStr items ->
      let rule_of_string s =
        match F.rule_of_name s with
        | Some r -> r
        | None ->
            let line, _ = line_col loc in
            raise (Bad_attribute { file = ctx.file; line; name = s })
      in
      let rec strings e =
        match e.pexp_desc with
        | Pexp_constant (Pconst_string (s, _, _)) -> [ s ]
        | Pexp_tuple es -> List.concat_map strings es
        | _ -> []
      in
      List.concat_map
        (fun item ->
          match item.pstr_desc with
          | Pstr_eval (e, _) -> List.map rule_of_string (strings e)
          | _ -> [])
        items
  | _ -> []

(* Push the suppressions carried by [attrs]; returns how many were
   pushed so the caller can pop them when leaving the node. *)
let push ctx ~scope (loc : Location.t) attrs =
  let rules =
    List.concat_map
      (fun (a : attribute) ->
        if String.equal a.attr_name.txt "lint.allow" then
          rules_of_payload ctx a.attr_loc a.attr_payload
        else [])
      attrs
  in
  List.iter
    (fun r ->
      let line, _ = line_col loc in
      let s =
        { F.s_file = ctx.file; s_line = line; s_rule = r; s_scope = scope;
          s_hits = 0 }
      in
      ctx.stack <- s :: ctx.stack;
      ctx.suppressions <- s :: ctx.suppressions;
      let a_end =
        if String.equal scope "module" then max_int
        else loc.loc_end.pos_cnum
      in
      ctx.allows <-
        { a_rule = r; a_start = loc.loc_start.pos_cnum; a_end; a_sup = s }
        :: ctx.allows)
    rules;
  List.length rules

let pop ctx n =
  for _ = 1 to n do
    ctx.stack <- List.tl ctx.stack
  done

(* ------------------------------------------------------------------ *)
(* Longident helpers and banned-name tables                            *)
(* ------------------------------------------------------------------ *)

let rec flatten (lid : Longident.t) =
  match lid with
  | Lident s -> [ s ]
  | Ldot (l, s) -> flatten l @ [ s ]
  | Lapply (a, b) -> flatten a @ flatten b

let rec last_of = function
  | [] -> ""
  | [ s ] -> s
  | _ :: tl -> last_of tl

let mem s l = List.exists (String.equal s) l

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-."; "~+." ]

let float_funs =
  [ "float_of_int"; "float_of_string"; "float_of_string_opt"; "int_of_float";
    "truncate"; "sqrt"; "exp"; "log"; "log10"; "log2"; "expm1"; "log1p";
    "floor"; "ceil"; "nan"; "infinity"; "neg_infinity"; "epsilon_float";
    "max_float"; "min_float"; "mod_float"; "abs_float"; "classify_float";
    "frexp"; "ldexp"; "modf"; "copysign"; "cos"; "sin"; "tan"; "acos";
    "asin"; "atan"; "atan2"; "cosh"; "sinh"; "tanh"; "hypot" ]

let int_ops =
  [ "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr";
    "abs"; "succ"; "pred"; "~-"; "~+" ]

(* Applications of these (by last path component) return int-like or
   bool-like values, so comparing their result with [=] is sound.
   [get] and [!] are the benefit-of-the-doubt cases: [a.(i)] and [!r]
   reveal nothing about the element type, exactly like a bare
   identifier. *)
let intlike_funs =
  [ "length"; "compare"; "sign"; "cardinal"; "size"; "code"; "hash";
    "to_int"; "int_of_char"; "int_of_string"; "get"; "!"; "n"; "degree";
    "slot"; ">="; "<="; ">"; "<"; "&&"; "||"; "not" ]

let intlike_name s =
  mem s intlike_funs || mem s int_ops
  || String.starts_with ~prefix:"count" s
  || String.starts_with ~prefix:"compare" s
  || String.ends_with ~suffix:"index" s
  || String.ends_with ~suffix:"length" s

let wallclock_funs = [ "gettimeofday"; "time"; "times" ]

(* [hash_order_module ["QVTbl"; "fold"]] is true: the module owning the
   iteration is Hashtbl itself or a Hashtbl.Make instance by the
   repo's *Tbl naming convention. *)
let hash_order_module path =
  match List.rev path with
  | _ :: m :: _ ->
      String.equal m "Hashtbl"
      || String.ends_with ~suffix:"tbl" (String.lowercase_ascii m)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Rule F/E/D identifier checks                                        *)
(* ------------------------------------------------------------------ *)

let check_ident ctx (loc : Location.t) lid =
  let path = flatten lid in
  let last = last_of path in
  (* F: float operations and Float module accesses *)
  (match path with
  | [ f ] when mem f float_ops || mem f float_funs ->
      report ctx F.Float_ban loc
        (Printf.sprintf "float operation `%s` in the exact core" f)
  | "Float" :: _ | "Stdlib" :: "Float" :: _ ->
      report ctx F.Float_ban loc
        (Printf.sprintf "Float module access `%s` in the exact core"
           (String.concat "." path))
  | [ "Stdlib"; f ] when mem f float_ops || mem f float_funs ->
      report ctx F.Float_ban loc
        (Printf.sprintf "float operation `Stdlib.%s` in the exact core" f)
  | _ -> ());
  (* E: polymorphic structural comparison/hash entry points *)
  (match path with
  | [ "compare" ] when not (Hashtbl.mem ctx.locals "compare") ->
      report ctx F.Poly_compare loc
        "bare polymorphic `compare`; use a typed comparator \
         (Bigint.compare / Rational.compare / Int.compare)"
  | [ "Stdlib"; "compare" ] ->
      report ctx F.Poly_compare loc
        "`Stdlib.compare` is polymorphic; use a typed comparator"
  | [ "Hashtbl"; "hash" ] | [ "Stdlib"; "Hashtbl"; "hash" ] ->
      report ctx F.Poly_compare loc
        "`Hashtbl.hash` is polymorphic; use a typed hash \
         (Bigint.hash / Rational.hash / Int.hash)"
  | [ "Hashtbl"; "create" ] | [ "Stdlib"; "Hashtbl"; "create" ] ->
      report ctx F.Poly_compare loc
        "polymorphic hash table; use a Hashtbl.Make instance with typed \
         equal/hash (Tables.Itbl / Tables.Ptbl, Incentive.QVTbl)"
  | _ -> ());
  (* D: ambient randomness, wall clock, hash-order iteration *)
  match path with
  | "Random" :: _ ->
      report ctx F.Determinism loc
        (Printf.sprintf
           "`%s`: ambient randomness in solver code; thread a \
            Workload.Prng state instead"
           (String.concat "." path))
  | [ "Sys"; "time" ] ->
      report ctx F.Determinism loc
        "`Sys.time`: wall-clock read in solver code (runtime/ owns budgets)"
  | "Unix" :: rest when mem (last_of rest) wallclock_funs ->
      report ctx F.Determinism loc
        (Printf.sprintf
           "`%s`: wall-clock read in solver code (runtime/ owns budgets)"
           (String.concat "." path))
  | _ :: _ :: _ when mem last [ "iter"; "fold" ] && hash_order_module path ->
      report ctx F.Determinism loc
        (Printf.sprintf
           "`%s` iterates in hash order; sort the bindings (or keys) with a \
            total order before consuming them"
           (String.concat "." path))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Rule E: polymorphic =/<> at non-primitive types (shape heuristic)   *)
(* ------------------------------------------------------------------ *)

(* Conservative shape test for "this operand is safe under polymorphic
   equality".  Literals, nullary constructors, bare lowercase
   identifiers (unknowable without types — given the benefit of the
   doubt) and applications of int-returning functions pass; anything
   visibly structured — module-qualified constants like [Q.zero],
   record/field accesses, constructors with arguments, tuples, other
   function results — is flagged and must use a typed equal. *)
let rec operand_is_primitive e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer _ | Pconst_char _ | Pconst_string _) -> true
  | Pexp_construct ({ txt = Lident ("true" | "false" | "()" | "[]" | "None"); _ }, None)
    ->
      true
  (* nullary polymorphic variants compare by tag, never structurally *)
  | Pexp_variant (_, None) -> true
  | Pexp_ident { txt = Lident _; _ } -> true
  | Pexp_ident { txt = Ldot (Lident "Stdlib", ("min_int" | "max_int")); _ } ->
      true
  | Pexp_constraint (_, { ptyp_desc = Ptyp_constr ({ txt = Lident t; _ }, []); _ })
    when mem t [ "int"; "bool"; "char"; "string"; "unit" ] ->
      true
  | Pexp_constraint (e, _) -> operand_is_primitive e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      intlike_name (last_of (flatten txt))
  | _ -> false

let check_equality ctx loc op a b =
  if not (operand_is_primitive a && operand_is_primitive b) then
    report ctx F.Poly_compare loc
      (Printf.sprintf
         "polymorphic `%s` on a structured operand; use a typed equal \
          (Rational.equal / Bigint.equal / List.equal ...)"
         op)

(* ------------------------------------------------------------------ *)
(* Rule X: catch-all handlers                                          *)
(* ------------------------------------------------------------------ *)

let rec catch_all p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (p, _) -> catch_all p
  | Ppat_or (a, b) -> catch_all a || catch_all b
  | _ -> false

exception Found

let reraises e =
  let super = Ast_iterator.default_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ }
      when mem (last_of (flatten txt))
             [ "raise"; "raise_notrace"; "raise_with_backtrace"; "reraise" ]
      ->
        raise Found
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  match it.expr it e with () -> false | exception Found -> true

let check_try ctx cases =
  List.iter
    (fun c ->
      if catch_all c.pc_lhs && not (reraises c.pc_rhs) then
        report ctx F.Exn_swallow c.pc_lhs.ppat_loc
          "catch-all handler can swallow Budget.Exhausted / checkpoint \
           exceptions; match specific exceptions or re-raise")
    cases

(* ------------------------------------------------------------------ *)
(* Rule R: naked retry loops                                           *)
(* ------------------------------------------------------------------ *)

let calls_any names e =
  let super = Ast_iterator.default_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt = Lident s; _ } when mem s names -> raise Found
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  match it.expr it e with () -> false | exception Found -> true

(* A catch-all handler whose body re-invokes the function it sits
   inside is a hand-rolled retry loop: unbounded, unbudgeted, and
   retrying deterministic failures.  Flagged even when the handler
   also re-raises — the retry call is the problem, not the swallow. *)
let check_naked_retry ctx cases =
  match ctx.recs with
  | [] -> ()
  | recs ->
      List.iter
        (fun c ->
          if catch_all c.pc_lhs && calls_any recs c.pc_rhs then
            report ctx F.No_naked_retry c.pc_lhs.ppat_loc
              "catch-all handler re-invokes the enclosing recursive \
               function (a naked retry loop); use Retry.with_retry so \
               attempts are bounded, budget-charged and limited to \
               transient errors")
        cases

let rec_names vbs =
  List.filter_map
    (fun (vb : value_binding) ->
      match vb.pvb_pat.ppat_desc with
      | Ppat_var { txt; _ } -> Some txt
      | _ -> None)
    vbs

(* ------------------------------------------------------------------ *)
(* Per-node dispatch                                                   *)
(* ------------------------------------------------------------------ *)

let ctx_knobs = [ "solver"; "grid"; "refine"; "domains" ]

let check_expr ctx e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) ->
      report ctx F.Float_ban e.pexp_loc "float literal in the exact core"
  (* C: a fresh per-function execution knob outside lib/engine *)
  | Pexp_fun (Optional name, _, _, _) when mem name ctx_knobs ->
      report ctx F.Config_drift e.pexp_loc
        (Printf.sprintf
           "optional `?%s` execution knob outside lib/engine; take an             `?ctx:Engine.Ctx.t` instead (Engine.Ctx owns the defaults)"
           name)
  | Pexp_ident { txt; loc } -> check_ident ctx loc txt
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident (("=" | "<>") as op); _ }; _ },
        [ (Nolabel, a); (Nolabel, b) ] ) ->
      check_equality ctx e.pexp_loc op a b
  | Pexp_try (_, cases) ->
      check_try ctx cases;
      check_naked_retry ctx cases
  | _ -> ()

let check_pat ctx p =
  match p.ppat_desc with
  | Ppat_constant (Pconst_float _) ->
      report ctx F.Float_ban p.ppat_loc "float literal pattern in the exact core"
  | _ -> ()

let check_typ ctx t =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, _) -> (
      match flatten txt with
      | [ "float" ] | [ "Stdlib"; "float" ] ->
          report ctx F.Float_ban t.ptyp_loc
            "float-typed annotation in the exact core"
      | _ -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

let collect_locals ctx str =
  let super = Ast_iterator.default_iterator in
  let value_binding it (vb : value_binding) =
    (match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } -> Hashtbl.replace ctx.locals txt ()
    | _ -> ());
    super.value_binding it vb
  in
  let it = { super with value_binding } in
  it.structure it str

type result = {
  findings : F.t list;
  suppressed : F.t list;
  suppressions : F.suppression list;
  allows : allow list;
}

let check ~file ~active str =
  let ctx =
    { file; active; findings = []; suppressed = []; stack = [];
      suppressions = []; allows = []; locals = Hashtbl.create 16; recs = [] }
  in
  collect_locals ctx str;
  let super = Ast_iterator.default_iterator in
  let push_recs names =
    ctx.recs <- names @ ctx.recs;
    List.length names
  in
  let pop_recs n =
    for _ = 1 to n do
      ctx.recs <- List.tl ctx.recs
    done
  in
  let expr it e =
    let n = push ctx ~scope:"expr" e.pexp_loc e.pexp_attributes in
    let r =
      match e.pexp_desc with
      | Pexp_let (Asttypes.Recursive, vbs, _) -> push_recs (rec_names vbs)
      | _ -> 0
    in
    check_expr ctx e;
    super.expr it e;
    pop_recs r;
    pop ctx n
  in
  let pat it p =
    let n = push ctx ~scope:"pattern" p.ppat_loc p.ppat_attributes in
    check_pat ctx p;
    super.pat it p;
    pop ctx n
  in
  let typ it t =
    let n = push ctx ~scope:"type" t.ptyp_loc t.ptyp_attributes in
    check_typ ctx t;
    super.typ it t;
    pop ctx n
  in
  let value_binding it (vb : value_binding) =
    let n = push ctx ~scope:"item" vb.pvb_loc vb.pvb_attributes in
    super.value_binding it vb;
    pop ctx n
  in
  let structure_item it item =
    let r =
      match item.pstr_desc with
      | Pstr_value (Asttypes.Recursive, vbs) -> push_recs (rec_names vbs)
      | _ -> 0
    in
    super.structure_item it item;
    pop_recs r
  in
  (* A floating [@@@lint.allow "..."] scopes over the remainder of the
     enclosing structure (module body), including nested modules. *)
  let structure it items =
    let pushed = ref 0 in
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_attribute a ->
            pushed := !pushed + push ctx ~scope:"module" item.pstr_loc [ a ]
        | _ -> it.Ast_iterator.structure_item it item)
      items;
    pop ctx !pushed
  in
  let it = { super with expr; pat; typ; value_binding; structure_item; structure } in
  it.structure it str;
  {
    findings = List.sort F.compare_finding ctx.findings;
    suppressed = List.sort F.compare_finding ctx.suppressed;
    suppressions = List.rev ctx.suppressions;
    allows = List.rev ctx.allows;
  }
