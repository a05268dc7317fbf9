(** Parsetree-driven mutation engine over the concurrency protocols.

    Generates first-order mutants of the mound sources by locating
    protocol-relevant sites in the Parsetree and performing {e byte-range
    surgery on the original source} at those sites — never a re-print of
    the AST, so comments (and with them the waiver markers the analyses
    honour) survive mutation intact. Each operator in {!catalog} models
    one defect class the static suite claims to catch: demoting a CAS to
    a plain store, deleting a version stamp, dropping a backoff or a
    helping call, swapping a lock-acquisition pair, deleting a pad
    field, and so on — the same classes hand-seeded in
    [test/mutant_static.ml], here re-derived mechanically from the
    shipped sources.

    A mutant is {e valid} when the rewritten source still parses
    ({!Frontend.parse}); validity is checked at generation time, so
    every mutant handed to {!Killmatrix} is analyzable by both engines.
    Parsing is also the only compilation gate: a handful of operators
    (in-place publication on an immutable field, the [Stdlib.Atomic]
    demotion) produce sources the type checker would reject, which is
    fine for certifying {e analyzers} that run on parse trees — the
    caveat is documented in DESIGN.md §13. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Operator catalog                                                    *)
(* ------------------------------------------------------------------ *)

type op = {
  op_name : string;
  op_descr : string;
  op_rules : string list;
      (** static rules this operator is designed to trip; empty means
          the defect class is invisible to the static suite by design
          and the mutant is expected to survive into escalation *)
  op_twin : string option;
      (** name of the canned dynamic program ({!Harness.Mutation_exp})
          that demonstrates the defect class when the static union
          lets the mutant through *)
}

let catalog : op list =
  [
    {
      op_name = "cas-to-set";
      op_descr =
        "demote a compare-and-set to a plain store that assumes success";
      op_rules = [ "atomicity"; "stale-publish" ];
      op_twin = None;
    };
    {
      op_name = "demote-rmw";
      op_descr = "split fetch_and_add into a get-compute-set lost update";
      op_rules = [ "atomicity" ];
      op_twin = Some "size-drift";
    };
    {
      op_name = "drop-backoff";
      op_descr = "delete a cpu_relax/exponential backoff call site";
      op_rules = [ "static-retry"; "retry-no-backoff" ];
      op_twin = None;
    };
    {
      op_name = "drop-deadline";
      op_descr = "replace a deadline-expiry check with false (spin forever)";
      op_rules = [ "static-deadline" ];
      op_twin = None;
    };
    {
      op_name = "drop-help";
      op_descr =
        "delete every helping call (moundify/complete) from a retry loop";
      op_rules = [ "static-retry"; "static-deadline" ];
      op_twin = None;
    };
    {
      op_name = "drop-stamp";
      op_descr =
        "drop the version discipline: freeze seq/version stamps and delete \
         the protocol-bit re-validation reads before the CAS";
      op_rules = [ "aba-risk" ];
      op_twin = None;
    };
    {
      op_name = "drop-completion";
      op_descr =
        "flip a completing dirty=false / releasing locked=false store to true";
      op_rules = [ "static-retry"; "lock-leak" ];
      op_twin = None;
    };
    {
      op_name = "stale-republish";
      op_descr = "CAS back the very value read from the shared structure";
      op_rules = [ "stale-publish" ];
      op_twin = None;
    };
    {
      op_name = "inplace-publish";
      op_descr =
        "republish the shared read and mutate its field in place \
         (fresh-copy discipline deleted)";
      op_rules = [ "stale-publish"; "post-publish-mutation" ];
      op_twin = None;
    };
    {
      op_name = "swap-lock-order";
      op_descr = "swap an adjacent pair of lock acquisitions";
      op_rules = [ "lock-order" ];
      op_twin = Some "lock-inversion-deadlock";
    };
    {
      op_name = "drop-unlock";
      op_descr = "delete an unlock call site";
      op_rules = [ "lock-leak" ];
      op_twin = None;
    };
    {
      op_name = "drop-pad";
      op_descr = "delete a pad field from a record type and its literals";
      op_rules = [ "layout" ];
      op_twin = None;
    };
    {
      op_name = "demote-atomic-get";
      op_descr = "bypass the Runtime functor with a direct Stdlib.Atomic.get";
      op_rules = [ "boundary" ];
      op_twin = None;
    };
    {
      op_name = "discard-cas";
      op_descr = "ignore a CAS result, deleting its failure path";
      op_rules = [ "cas-discard" ];
      op_twin = None;
    };
    {
      op_name = "alloc-in-retry";
      op_descr = "allocate a fresh array inside a CAS retry loop";
      op_rules = [ "alloc-in-retry" ];
      op_twin = None;
    };
    {
      op_name = "mutabilize";
      op_descr =
        "mark a field of a record published through an Atomic.t mutable";
      op_rules = [ "mutable-atomic" ];
      op_twin = None;
    };
    {
      op_name = "drop-waiver";
      op_descr =
        "delete a lint: allow marker: the waived finding must resurface";
      op_rules = [];
      op_twin = None;
    };
    {
      op_name = "drop-size-update";
      op_descr = "delete a size-counter fetch_and_add";
      op_rules = [];
      op_twin = Some "size-drift";
    };
    {
      op_name = "drop-top-refresh";
      op_descr = "delete the cached-top refresh from the unlock path";
      op_rules = [];
      op_twin = Some "stale-top";
    };
  ]

let op_names = List.map (fun o -> o.op_name) catalog
let find_op name = List.find_opt (fun o -> o.op_name = name) catalog

(** Union of every operator's target rules — the rule universe the kill
    matrix is judged over (hygiene rules and rules with no reachable
    site in the shipped tree are out of scope by construction). *)
let target_rules =
  List.concat_map (fun o -> o.op_rules) catalog |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Sites, edits, mutants                                               *)
(* ------------------------------------------------------------------ *)

type edit = { e_start : int; e_stop : int; e_text : string }

type site = { s_line : int; s_note : string; s_edits : edit list }

type mutant = {
  m_id : string;
  m_op : string;
  m_file : string;
  m_line : int;
  m_note : string;
  m_src : string;  (** the full mutated source *)
}

let span_of_loc (loc : Location.t) =
  (loc.loc_start.pos_cnum, loc.loc_end.pos_cnum)

let sub src (a, b) = String.sub src a (b - a)
let expr_src src e = sub src (span_of_loc e.pexp_loc)
let line_of e = Frontend.line_of_loc e.pexp_loc
let replace e text =
  let a, b = span_of_loc e.pexp_loc in
  { e_start = a; e_stop = b; e_text = text }

(* Apply edits back to front so earlier offsets stay valid; reject
   overlapping spans (a malformed collector, not a user error). *)
let apply_edits src (edits : edit list) : string option =
  let sorted =
    List.sort (fun a b -> compare b.e_start a.e_start) edits
  in
  let ok =
    let rec disjoint = function
      | a :: (b :: _ as rest) -> b.e_stop <= a.e_start && disjoint rest
      | _ -> true
    in
    disjoint sorted
  in
  if not ok then None
  else
    Some
      (List.fold_left
         (fun acc e ->
           String.sub acc 0 e.e_start ^ e.e_text
           ^ String.sub acc e.e_stop (String.length acc - e.e_stop))
         src sorted)

(* Extend a deletion span through the separator that kept the deleted
   element apart from its neighbours: the following [;] if there is
   one, else the preceding [;] (last element of a record). *)
let span_with_separator src (a, b) =
  let n = String.length src in
  let is_ws c = c = ' ' || c = '\t' || c = '\n' in
  if b > a && src.[b - 1] = ';' then (a, b)
    (* the parser's own span already swallowed the trailing separator
       (label_declaration locs do); extending would eat a neighbour's *)
  else
  let j = ref b in
  while !j < n && is_ws src.[!j] do incr j done;
  if !j < n && src.[!j] = ';' then (a, !j + 1)
  else begin
    let i = ref (a - 1) in
    while !i >= 0 && is_ws src.[!i] do decr i done;
    if !i >= 0 && src.[!i] = ';' then (!i, b) else (a, b)
  end

(* ------------------------------------------------------------------ *)
(* Recognizers                                                         *)
(* ------------------------------------------------------------------ *)

let segs_of_head e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> ( try Some (Longident.flatten txt) with _ -> None)
  | _ -> None

let last_seg segs = List.nth segs (List.length segs - 1)
let prefix_str segs =
  String.concat "." (List.filteri (fun i _ -> i < List.length segs - 1) segs)

let cas_names = [ "cas"; "compare_and_set" ]

(** [M.cas loc expected fresh] / [R.Atomic.compare_and_set loc old new]:
    a dotted CAS-family application with three positional arguments. *)
let cas_app e =
  match e.pexp_desc with
  | Pexp_apply
      ( head,
        [
          (Asttypes.Nolabel, l); (Asttypes.Nolabel, x); (Asttypes.Nolabel, f);
        ] ) -> (
      match segs_of_head head with
      | Some segs when List.length segs >= 2 && List.mem (last_seg segs) cas_names
        ->
          Some (prefix_str segs, l, x, f)
      | _ -> None)
  | _ -> None

let seg_contains seg needle =
  let ls = String.lowercase_ascii seg in
  let ln = String.length needle and n = String.length ls in
  let rec go i = i + ln <= n && (String.sub ls i ln = needle || go (i + 1)) in
  go 0

let app_with_head_pred e pred =
  match e.pexp_desc with
  | Pexp_apply (head, args) -> (
      match segs_of_head head with
      | Some segs when pred segs -> Some (head, args)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* AST walks                                                           *)
(* ------------------------------------------------------------------ *)

let on_exprs (p : Frontend.parsed) (f : expression -> unit) =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          f e;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it p.p_ast

let on_type_decls (p : Frontend.parsed) (f : type_declaration -> unit) =
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun it d ->
          f d;
          Ast_iterator.default_iterator.type_declaration it d);
    }
  in
  it.structure it p.p_ast

let rec fun_body e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, b) -> fun_body b
  | Pexp_newtype (_, b) -> fun_body b
  | _ -> e

let pat_var_name (pat : pattern) =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
  | _ -> None

(** Visit every expression under one subtree (a single function body,
    unlike {!on_exprs} which walks the whole file). *)
let on_sub_exprs (body : expression) (f : expression -> unit) =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          f e;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it body

(** Visit every module-level value binding as (name, bound expression) —
    the per-function granularity the compound operators mutate at. *)
let on_bindings (p : Frontend.parsed) (f : string -> expression -> unit) =
  let it =
    {
      Ast_iterator.default_iterator with
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  match pat_var_name vb.pvb_pat with
                  | Some name -> f name vb.pvb_expr
                  | None -> ())
                vbs
          | _ -> ());
          Ast_iterator.default_iterator.structure_item it si);
    }
  in
  it.structure it p.p_ast

(* ------------------------------------------------------------------ *)
(* Enabling edits: summarizable lock primitives                        *)
(*                                                                     *)
(* The locking mound's acquire installs a let-bound witness record and *)
(* its release routes the [locked = false] store through [restamp], so *)
(* neither matches the literal-record shapes {!Summary} keys on — the  *)
(* lock rules are latent over the shipped tree, firing only on the     *)
(* hand-seeded fixtures' "faithful copies" (test/mutant_static.ml).    *)
(* The lock operators therefore carry two {e enabling} edits alongside *)
(* the defect: inline the witness literal into the acquiring CAS, and  *)
(* rewrite [unlock] as a direct release-shaped store. Both preserve    *)
(* the lease-free protocol; they exist so the summaries can see the    *)
(* acquire/release at all (DESIGN.md §13 records the caveat).          *)
(* ------------------------------------------------------------------ *)

let record_field_is fields fname lit =
  List.exists
    (fun ((lid : Longident.t Location.loc), fe) ->
      last_seg (Longident.flatten lid.txt) = fname
      &&
      match fe.pexp_desc with
      | Pexp_construct ({ txt = Lident c; _ }, None) -> c = lit
      | _ -> false)
    fields

(* [let mine = { ...; locked = true; ... } in ... cas loc expected mine]:
   replace the CAS's fresh-argument ident with the record literal so the
   acquire summary sees [locked = true]. First match only — one visible
   acquisition is enough to summarize the primitive. *)
let witness_inline_edits p src =
  let out = ref [] in
  on_exprs p (fun e ->
      match e.pexp_desc with
      | Pexp_let (_, [ vb ], cont) -> (
          match (pat_var_name vb.pvb_pat, vb.pvb_expr.pexp_desc) with
          | Some v, Pexp_record (fields, None)
            when record_field_is fields "locked" "true" ->
              let rec_src = expr_src src vb.pvb_expr in
              on_sub_exprs cont (fun e2 ->
                  match cas_app e2 with
                  | Some (_, _, _, f) -> (
                      match f.pexp_desc with
                      | Pexp_ident { txt = Lident fv; _ }
                        when fv = v && !out = [] ->
                          out := [ replace f rec_src ]
                      | _ -> ())
                  | None -> ())
          | _ -> ())
      | _ -> ());
  !out

(* [let unlock t slot ~witness list = restamp t slot ~witness REC]:
   rewrite the body as [R.Atomic.set slot REC] so the release summary
   sees the [locked = false] store directly. [flip] additionally turns
   the store into [locked = true] — the completion-drop defect. *)
let unlock_release_edits ?(flip = false) p src =
  let out = ref [] in
  on_bindings p (fun name body ->
      if seg_contains name "unlock" && !out = [] then
        let b = fun_body body in
        match b.pexp_desc with
        | Pexp_apply (head, args) -> (
            match segs_of_head head with
            | Some segs when seg_contains (last_seg segs) "restamp" -> (
                match Summary.nolabel_args args with
                | [ _t; slot; rec_arg ] -> (
                    match rec_arg.pexp_desc with
                    | Pexp_record (fields, _)
                      when record_field_is fields "locked" "false" ->
                        let rec_src =
                          if not flip then expr_src src rec_arg
                          else
                            (* splice [true] over the [false] literal,
                               offsets relative to the record span *)
                            let ra, _ = span_of_loc rec_arg.pexp_loc in
                            let fe =
                              List.find_map
                                (fun ((lid : Longident.t Location.loc), fe) ->
                                  if
                                    last_seg (Longident.flatten lid.txt)
                                    = "locked"
                                  then Some fe
                                  else None)
                                fields
                              |> Option.get
                            in
                            let fa, fb = span_of_loc fe.pexp_loc in
                            let rs = expr_src src rec_arg in
                            String.sub rs 0 (fa - ra) ^ "true"
                            ^ String.sub rs (fb - ra)
                                (String.length rs - (fb - ra))
                        in
                        out :=
                          [
                            replace b
                              (Printf.sprintf "R.Atomic.set %s %s"
                                 (expr_src src slot) rec_src);
                          ]
                    | _ -> ())
                | _ -> ())
            | _ -> ())
        | _ -> ());
  !out

(** Both enabling edits, or [] when the file has no such lock machinery
    (the lock operators then have no sites in it). *)
let enabling_lock_edits p src =
  match witness_inline_edits p src with
  | [] -> []
  | w -> w @ unlock_release_edits p src

(* ------------------------------------------------------------------ *)
(* Per-operator site collectors                                        *)
(* ------------------------------------------------------------------ *)

let sites_cas_to_set p src =
  let out = ref [] in
  on_exprs p (fun e ->
      match cas_app e with
      | Some (prefix, l, _x, f) ->
          out :=
            {
              s_line = line_of e;
              s_note = "CAS demoted to " ^ prefix ^ ".set";
              s_edits =
                [
                  replace e
                    (Printf.sprintf "(%s.set (%s) (%s); true)" prefix
                       (expr_src src l) (expr_src src f));
                ];
            }
            :: !out
      | None -> ());
  !out

let sites_demote_rmw p src =
  let out = ref [] in
  on_exprs p (fun e ->
      match
        app_with_head_pred e (fun segs ->
            List.length segs >= 2 && last_seg segs = "fetch_and_add")
      with
      | Some (head, [ (Asttypes.Nolabel, l); (Asttypes.Nolabel, d) ]) ->
          let prefix =
            prefix_str (Option.value (segs_of_head head) ~default:[ "X" ])
          in
          out :=
            {
              s_line = line_of e;
              s_note = "fetch_and_add split into get-compute-set";
              s_edits =
                [
                  replace e
                    (Printf.sprintf
                       "(let __n = %s.get (%s) in %s.set (%s) (__n + (%s)); \
                        __n)"
                       prefix (expr_src src l) prefix (expr_src src l)
                       (expr_src src d));
                ];
            }
            :: !out
      | _ -> ());
  !out

let sites_drop_backoff p _src =
  let out = ref [] in
  on_exprs p (fun e ->
      match
        app_with_head_pred e (fun segs ->
            let s = last_seg segs in
            s = "cpu_relax" || s = "exponential" || s = "once"
            || seg_contains s "backoff")
      with
      | Some _ ->
          out :=
            {
              s_line = line_of e;
              s_note = "backoff call deleted";
              s_edits = [ replace e "()" ];
            }
            :: !out
      | None -> ());
  !out

let sites_drop_deadline p _src =
  let out = ref [] in
  on_exprs p (fun e ->
      match app_with_head_pred e (fun segs -> last_seg segs = "expired") with
      | Some _ ->
          out :=
            {
              s_line = line_of e;
              s_note = "deadline-expiry check replaced with false";
              s_edits = [ replace e "false" ];
            }
            :: !out
      | None -> ());
  !out

(* One compound mutant per self-recursive retry loop: delete {e every}
   helping call it makes (a single dropped site leaves the loop's
   transitive [helps] intact through the others). Loops that also back
   off are skipped — static-retry cannot fire on them, the drop is
   invisible. *)
let sites_drop_help p src =
  let out = ref [] in
  on_bindings p (fun name body ->
      let b = fun_body body in
      let bsrc = expr_src src b in
      let backs_off =
        seg_contains bsrc "cpu_relax" || seg_contains bsrc "backoff"
      in
      if not backs_off then begin
        let self_rec = ref false in
        let helps = ref [] in
        let line = ref max_int in
        on_sub_exprs b (fun e ->
            match app_with_head_pred e (fun segs -> last_seg segs = name) with
            | Some _ -> self_rec := true
            | None -> (
                match
                  app_with_head_pred e (fun segs ->
                      let s = last_seg segs in
                      s <> name
                      && (seg_contains s "moundify"
                         || seg_contains s "help"
                         || seg_contains s "complete"))
                with
                | Some _ ->
                    helps := replace e "()" :: !helps;
                    line := min !line (line_of e)
                | None -> ()));
        if !self_rec && !helps <> [] then
          out :=
            {
              s_line = !line;
              s_note =
                Printf.sprintf "all %d helping calls in %s deleted"
                  (List.length !helps) name;
              s_edits = !helps;
            }
            :: !out
      end);
  !out

let stamp_fields = [ "seq"; "ver"; "stamp"; "epoch" ]

let protocol_field f =
  let lf = String.lowercase_ascii f in
  List.exists (seg_contains lf) [ "seq"; "ver"; "stamp"; "epoch" ]
  || seg_contains lf "dirty"
  || seg_contains lf "lock"

(* A branch condition that is a bare protocol-bit inspection
   ([cur.dirty], [not n.locked]) — the re-validation read the aba-risk
   analysis credits. Guarded shapes only; a condition that also
   performs the CAS is left alone. *)
let rec protocol_read_cond e =
  match e.pexp_desc with
  | Pexp_field (_, { txt; _ }) -> (
      match List.rev (try Longident.flatten txt with _ -> []) with
      | f :: _ -> protocol_field f
      | [] -> false)
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident "not"; _ }; _ },
        [ (Asttypes.Nolabel, a) ] ) ->
      protocol_read_cond a
  | _ -> false

(* One compound mutant per function that CASes directly: every computed
   version stamp becomes the constant [0] and every protocol-bit branch
   condition becomes [false] — the full version discipline deleted, the
   Unstamped_publish class re-derived in place. Both halves are needed:
   an unstamped fresh value alone stays invisible while the loop still
   re-validates [dirty]/[locked] before the CAS. *)
let sites_drop_stamp p _src =
  let direct_cas_heads = [ "cas"; "compare_and_set"; "dcss"; "dcas" ] in
  let out = ref [] in
  on_bindings p (fun _name body ->
      let b = fun_body body in
      let direct_cas = ref false in
      on_sub_exprs b (fun e ->
          match e.pexp_desc with
          | Pexp_apply (h, _) -> (
              match segs_of_head h with
              | Some segs
                when List.length segs >= 2
                     && List.mem (last_seg segs) direct_cas_heads ->
                  direct_cas := true
              | _ -> ())
          | _ -> ());
      if !direct_cas then begin
        let stamps = ref [] in
        let revals = ref [] in
        let line = ref max_int in
        on_sub_exprs b (fun e ->
            match e.pexp_desc with
            | Pexp_record (fields, _) ->
                List.iter
                  (fun ((lid : Longident.t Location.loc), fe) ->
                    if
                      List.mem
                        (last_seg (Longident.flatten lid.txt))
                        stamp_fields
                    then
                      match fe.pexp_desc with
                      | Pexp_apply _ ->
                          stamps := replace fe "0" :: !stamps;
                          line := min !line (line_of fe)
                      | _ -> ())
                  fields
            | Pexp_ifthenelse (cond, _, _) when protocol_read_cond cond ->
                revals := replace cond "false" :: !revals
            | _ -> ());
        if !stamps <> [] then
          out :=
            {
              s_line = !line;
              s_note =
                Printf.sprintf
                  "version discipline dropped: %d stamps frozen, %d \
                   re-validation reads removed"
                  (List.length !stamps) (List.length !revals);
              s_edits = !stamps @ !revals;
            }
            :: !out
      end);
  !out

(* Two shapes, matching the two mounds' completion protocols.

   Lock-free: per function, flip every [dirty = false] literal inside a
   CAS-family fresh argument to [true] — the function's completing
   CASes stop completing, so every retry loop reaching it loses its
   transitive [helps] and static-retry resurfaces. Per-field flips are
   useless here: one intact completing store keeps [helps] true.

   Locking: rewrite [unlock]'s store as [locked = true] (with the
   enabling edits making acquire and release summarizable at all) — the
   release never releases, and every acquiring path leaks. *)
let sites_drop_completion p src =
  let cas_heads = [ "cas"; "compare_and_set"; "dcss"; "dcas" ] in
  let out = ref [] in
  on_bindings p (fun name body ->
      let b = fun_body body in
      let flips = ref [] in
      let line = ref max_int in
      on_sub_exprs b (fun e ->
          match e.pexp_desc with
          | Pexp_apply (h, args) -> (
              match segs_of_head h with
              | Some segs
                when List.length segs >= 2
                     && List.mem (last_seg segs) cas_heads ->
                  List.iter
                    (fun a ->
                      match a.pexp_desc with
                      | Pexp_record (fields, _) ->
                          List.iter
                            (fun ((lid : Longident.t Location.loc), fe) ->
                              let lname =
                                last_seg (Longident.flatten lid.txt)
                              in
                              if lname = "dirty" || lname = "locked" then
                                match fe.pexp_desc with
                                | Pexp_construct
                                    ({ txt = Lident "false"; _ }, None) ->
                                    flips := replace fe "true" :: !flips;
                                    line := min !line (line_of fe)
                                | _ -> ())
                            fields
                      | _ -> ())
                    (Summary.nolabel_args args)
              | _ -> ())
          | _ -> ());
      if !flips <> [] then
        out :=
          {
            s_line = !line;
            s_note =
              Printf.sprintf
                "%d completing stores in %s no longer publish clean"
                (List.length !flips) name;
            s_edits = !flips;
          }
          :: !out);
  (match witness_inline_edits p src with
  | [] -> ()
  | wit -> (
      match unlock_release_edits ~flip:true p src with
      | [ e ] ->
          out :=
            {
              s_line =
                (let rec count i l =
                   if i >= e.e_start || i >= String.length src then l
                   else count (i + 1) (if src.[i] = '\n' then l + 1 else l)
                 in
                 count 0 1);
              s_note = "release store flipped to locked = true: never unlocks";
              s_edits = e :: wit;
            }
            :: !out
      | _ -> ()));
  !out

let sites_stale_republish p src =
  let out = ref [] in
  on_exprs p (fun e ->
      match cas_app e with
      | Some (_, _, x, f) when (match x.pexp_desc with
                                | Pexp_ident _ -> true
                                | _ -> false) ->
          out :=
            {
              s_line = line_of e;
              s_note = "fresh value replaced by the shared read itself";
              s_edits = [ replace f (expr_src src x) ];
            }
            :: !out
      | _ -> ());
  !out

let sites_inplace_publish p src =
  let out = ref [] in
  (* mutabilize the field we write through, when its declaration is in
     this file — the mutant then carries the full defect: a mutable
     field travelling through the shared cell, republished and edited
     in place *)
  let decl_edit fld =
    let found = ref None in
    on_type_decls p (fun d ->
        match d.ptype_kind with
        | Ptype_record labels ->
            List.iter
              (fun (l : label_declaration) ->
                if l.pld_name.txt = fld && l.pld_mutable = Asttypes.Immutable
                then
                  let a, _ = span_of_loc l.pld_loc in
                  found := Some { e_start = a; e_stop = a; e_text = "mutable " })
              labels
        | _ -> ());
    !found
  in
  on_exprs p (fun e ->
      match cas_app e with
      | Some (prefix, l, x, f) -> (
          match (x.pexp_desc, f.pexp_desc) with
          | Pexp_ident _, Pexp_record (((lid : Longident.t Location.loc), _) :: _, _) ->
              let fld = last_seg (Longident.flatten lid.txt) in
              let xs = expr_src src x in
              let body =
                Printf.sprintf
                  "(%s.cas (%s) %s %s && ((%s).%s <- (%s).%s; true))" prefix
                  (expr_src src l) xs xs xs fld xs fld
              in
              let edits =
                replace e body
                :: (match decl_edit fld with Some d -> [ d ] | None -> [])
              in
              out :=
                {
                  s_line = line_of e;
                  s_note =
                    Printf.sprintf
                      "republish and in-place write through .%s" fld;
                  s_edits = edits;
                }
                :: !out
          | _ -> ())
      | None -> ());
  !out

let lock_call e =
  match
    app_with_head_pred e (fun segs ->
        let s = last_seg segs in
        seg_contains s "set_lock" || s = "try_lock" || s = "acquire")
  with
  | Some _ -> true
  | None -> false

let sites_swap_lock_order p src =
  let out = ref [] in
  let swap ?(extra = []) ?note e1 e2 =
    let s1 = span_of_loc e1.pexp_loc and s2 = span_of_loc e2.pexp_loc in
    out :=
      {
        s_line = line_of e1;
        s_note =
          Option.value note ~default:"adjacent lock acquisitions swapped";
        s_edits =
          { e_start = fst s1; e_stop = snd s1; e_text = sub src s2 }
          :: { e_start = fst s2; e_stop = snd s2; e_text = sub src s1 }
          :: extra;
      }
      :: !out
  in
  let enab = enabling_lock_edits p src in
  on_exprs p (fun e ->
      match e.pexp_desc with
      | Pexp_sequence (e1, rest) when lock_call e1 ->
          let head2 =
            match rest.pexp_desc with Pexp_sequence (e2, _) -> e2 | _ -> rest
          in
          if lock_call head2 then swap e1 head2
      | Pexp_let (_, [ vb1 ], body) when lock_call vb1.pvb_expr -> (
          match body.pexp_desc with
          | Pexp_let (_, [ vb2 ], _) when lock_call vb2.pvb_expr ->
              swap vb1.pvb_expr vb2.pvb_expr
          | _ -> ())
      | Pexp_match (s1, cases) when lock_call s1 && enab <> [] ->
          (* [match acquire parent with Some wp -> match acquire child]:
             the hand-over-hand pair of the deadline-aware paths. The
             swap inverts parent/child; the enabling edits let the
             summary track the acquisition so lock-order proves the
             inversion statically. *)
          List.iter
            (fun c ->
              match c.pc_rhs.pexp_desc with
              | Pexp_match (s2, _) when lock_call s2 ->
                  swap
                    ~note:
                      "hand-over-hand acquisitions inverted (witness \
                       inlined for the summary)"
                    ~extra:enab s1 s2
              | _ -> ())
            cases
      | _ -> ());
  !out

(* Delete one release call on a path whose acquisition the summaries
   can track (a direct [set_lock_until] caller, with the enabling edits
   applied) — that path then reaches the end of the function still
   holding the node and lock-leak fires. Files without the witness
   machinery have no sites: their release calls are invisible to the
   analysis in the first place, so the drop could never be observed. *)
let sites_drop_unlock p src =
  let enab = enabling_lock_edits p src in
  let out = ref [] in
  if enab <> [] then
    on_bindings p (fun _name body ->
        let b = fun_body body in
        let tracked = ref false in
        on_sub_exprs b (fun e ->
            match
              app_with_head_pred e (fun segs ->
                  last_seg segs = "set_lock_until")
            with
            | Some _ -> tracked := true
            | None -> ());
        if !tracked then
          on_sub_exprs b (fun e ->
              match
                app_with_head_pred e (fun segs ->
                    seg_contains (last_seg segs) "unlock")
              with
              | Some _ ->
                  out :=
                    {
                      s_line = line_of e;
                      s_note =
                        "unlock call deleted (witness inlined for the \
                         summary)";
                      s_edits = replace e "()" :: enab;
                    }
                    :: !out
              | None -> ()));
  !out

let is_pad name =
  String.length name >= 3 && String.lowercase_ascii (String.sub name 0 3) = "pad"

let sites_drop_pad p src =
  let out = ref [] in
  on_type_decls p (fun d ->
      match d.ptype_kind with
      | Ptype_record labels ->
          List.iter
            (fun (l : label_declaration) ->
              if is_pad l.pld_name.txt then begin
                let decl_span =
                  span_with_separator src (span_of_loc l.pld_loc)
                in
                let literal_edits = ref [] in
                on_exprs p (fun e ->
                    match e.pexp_desc with
                    | Pexp_record (fields, _) ->
                        List.iter
                          (fun ((lid : Longident.t Location.loc), fe) ->
                            if
                              last_seg (Longident.flatten lid.txt)
                              = l.pld_name.txt
                            then
                              let a, _ = span_of_loc lid.loc in
                              let _, b = span_of_loc fe.pexp_loc in
                              let a, b = span_with_separator src (a, b) in
                              literal_edits :=
                                { e_start = a; e_stop = b; e_text = "" }
                                :: !literal_edits)
                          fields
                    | _ -> ());
                out :=
                  {
                    s_line = Frontend.line_of_loc l.pld_loc;
                    s_note = l.pld_name.txt ^ " field deleted";
                    s_edits =
                      {
                        e_start = fst decl_span;
                        e_stop = snd decl_span;
                        e_text = "";
                      }
                      :: !literal_edits;
                  }
                  :: !out
              end)
            labels
      | _ -> ());
  !out

let sites_demote_atomic_get p _src =
  let out = ref [] in
  on_exprs p (fun e ->
      match e.pexp_desc with
      | Pexp_apply (head, _) -> (
          match segs_of_head head with
          | Some segs
            when List.length segs >= 2
                 && last_seg segs = "get"
                 && List.exists (fun s -> s = "Atomic") segs ->
              let a, b = span_of_loc head.pexp_loc in
              out :=
                {
                  s_line = line_of e;
                  s_note = "Runtime read demoted to Stdlib.Atomic.get";
                  s_edits =
                    [ { e_start = a; e_stop = b; e_text = "Stdlib.Atomic.get" } ];
                }
                :: !out
          | _ -> ())
      | _ -> ());
  !out

let sites_discard_cas p src =
  let out = ref [] in
  on_exprs p (fun e ->
      match e.pexp_desc with
      | Pexp_ifthenelse (cond, _, None) -> (
          match cond.pexp_desc with
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Lident "not"; _ }; _ },
                [ (Asttypes.Nolabel, arg) ] )
            when cas_app arg <> None ->
              out :=
                {
                  s_line = line_of e;
                  s_note = "CAS failure path deleted, result ignored";
                  s_edits =
                    [ replace e (Printf.sprintf "ignore (%s)" (expr_src src arg)) ];
                }
                :: !out
          | _ -> ())
      | _ -> ());
  !out

(* The innermost body of a [fun]-chain: where an inserted binding lands
   inside the function proper, after its parameters. *)
let sites_alloc_in_retry (p : Frontend.parsed) src =
  let out = ref [] in
  let has_cas body =
    let found = ref false in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match cas_app e with Some _ -> found := true | None -> ());
            Ast_iterator.default_iterator.expr it e);
      }
    in
    it.expr it body;
    !found
  in
  let seen = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_value (Asttypes.Recursive, vbs) ->
              List.iter
                (fun vb ->
                  let body = fun_body vb.pvb_expr in
                  if has_cas body then begin
                    let a, _ = span_of_loc body.pexp_loc in
                    if not (List.mem a !seen) then begin
                      seen := a :: !seen;
                      out :=
                        {
                          s_line = Frontend.line_of_loc body.pexp_loc;
                          s_note = "array allocated inside the retry loop";
                          s_edits =
                            [
                              {
                                e_start = a;
                                e_stop = a;
                                e_text = "let _pool = Array.make 1 0 in ";
                              };
                            ];
                        }
                        :: !out
                    end
                  end)
                vbs
          | _ -> ());
          Ast_iterator.default_iterator.structure_item it si);
    }
  in
  it.structure it p.p_ast;
  ignore src;
  !out

(* Identifier-with-dots tokens of [s], mirroring the token engine's
   published-through-an-Atomic test: a record is a target only when its
   name appears immediately before a path ending in [Atomic.t] (or an
   aliased [A.t]) — that is the record the mutable-atomic rule guards.
   A [mutable] on a record held in a plain array is legal OCaml the
   rule rightly ignores. *)
let ident_tokens s =
  let is_ident c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '\''
  in
  let n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    if is_ident s.[!i] then begin
      let start = !i in
      while !i < n && (is_ident s.[!i] || s.[!i] = '.') do incr i done;
      out := String.sub s start (!i - start) :: !out
    end
    else incr i
  done;
  List.rev !out

let published_through_atomic src name =
  let ends_with ~suffix s =
    let ls = String.length s and lx = String.length suffix in
    ls >= lx && String.sub s (ls - lx) lx = suffix
  in
  let rec go = function
    | t1 :: (t2 :: _ as rest) ->
        (t1 = name && (ends_with ~suffix:"Atomic.t" t2 || t2 = "A.t"))
        || go rest
    | _ -> false
  in
  go (ident_tokens src)

let sites_mutabilize p src =
  let out = ref [] in
  on_type_decls p (fun d ->
      match d.ptype_kind with
      | Ptype_record labels when published_through_atomic src d.ptype_name.txt
        ->
          List.iter
            (fun (l : label_declaration) ->
              if l.pld_mutable = Asttypes.Immutable then
                let a, _ = span_of_loc l.pld_loc in
                out :=
                  {
                    s_line = Frontend.line_of_loc l.pld_loc;
                    s_note =
                      Printf.sprintf
                        "%s.%s marked mutable behind the record's Atomic.t"
                        d.ptype_name.txt l.pld_name.txt;
                    s_edits =
                      [ { e_start = a; e_stop = a; e_text = "mutable " } ];
                  }
                  :: !out)
            labels
      | _ -> ());
  !out

(* Waivers are comments, invisible to the Parsetree: a text scan finds
   each "lint: allow" marker and deletes the whole comment, nesting
   respected. Whatever the waiver was holding back must then
   resurface — the certification that waivers never mask a dead rule. *)
let sites_drop_waiver (p : Frontend.parsed) src =
  ignore p;
  let out = ref [] in
  let n = String.length src in
  let line_at off =
    let l = ref 1 in
    for i = 0 to off - 1 do
      if src.[i] = '\n' then incr l
    done;
    !l
  in
  let rec comment_end i depth =
    if i + 1 >= n then n
    else if src.[i] = '(' && src.[i + 1] = '*' then comment_end (i + 2) (depth + 1)
    else if src.[i] = '*' && src.[i + 1] = ')' then
      if depth = 1 then i + 2 else comment_end (i + 2) (depth - 1)
    else comment_end (i + 1) depth
  in
  let marker = "(* lint: allow" in
  let ml = String.length marker in
  let i = ref 0 in
  while !i + ml <= n do
    if String.sub src !i ml = marker then begin
      let stop = comment_end !i 0 in
      out :=
        {
          s_line = line_at !i;
          s_note = "waiver deleted; the waived finding must resurface";
          s_edits = [ { e_start = !i; e_stop = stop; e_text = "" } ];
        }
        :: !out;
      i := stop
    end
    else incr i
  done;
  !out

let sites_drop_size_update p src =
  let out = ref [] in
  on_exprs p (fun e ->
      match
        app_with_head_pred e (fun segs -> last_seg segs = "fetch_and_add")
      with
      | Some (_, (Asttypes.Nolabel, l) :: _) ->
          let ls = String.lowercase_ascii (expr_src src l) in
          if
            List.exists (fun w -> seg_contains ls w) [ "size"; "count" ]
          then
            out :=
              {
                s_line = line_of e;
                s_note = "size-counter update deleted";
                s_edits = [ replace e "0" ];
              }
              :: !out
      | _ -> ());
  !out

let sites_drop_top_refresh p _src =
  let out = ref [] in
  on_exprs p (fun e ->
      match
        app_with_head_pred e (fun segs ->
            List.length segs >= 2
            && last_seg segs = "set"
            && List.exists (fun s -> s = "Atomic") segs)
      with
      | Some (_, (Asttypes.Nolabel, l) :: _) -> (
          match l.pexp_desc with
          | Pexp_field (_, { txt; _ })
            when seg_contains (last_seg (Longident.flatten txt)) "top" ->
              out :=
                {
                  s_line = line_of e;
                  s_note = "cached-top refresh deleted";
                  s_edits = [ replace e "()" ];
                }
                :: !out
          | _ -> ())
      | _ -> ());
  !out

let collectors =
  [
    ("cas-to-set", sites_cas_to_set);
    ("demote-rmw", sites_demote_rmw);
    ("drop-backoff", sites_drop_backoff);
    ("drop-deadline", sites_drop_deadline);
    ("drop-help", sites_drop_help);
    ("drop-stamp", sites_drop_stamp);
    ("drop-completion", sites_drop_completion);
    ("stale-republish", sites_stale_republish);
    ("inplace-publish", sites_inplace_publish);
    ("swap-lock-order", sites_swap_lock_order);
    ("drop-unlock", sites_drop_unlock);
    ("drop-pad", sites_drop_pad);
    ("demote-atomic-get", sites_demote_atomic_get);
    ("discard-cas", sites_discard_cas);
    ("alloc-in-retry", sites_alloc_in_retry);
    ("mutabilize", sites_mutabilize);
    ("drop-waiver", sites_drop_waiver);
    ("drop-size-update", sites_drop_size_update);
    ("drop-top-refresh", sites_drop_top_refresh);
  ]

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

(** Valid mutants of one source file under the named operators (default:
    the whole catalog). Deterministic: sites are emitted in source
    order per operator, ids carry [op:file:line] plus a [#k]
    disambiguator when one line hosts several sites. Sites whose
    rewritten source no longer parses are dropped. *)
let mutants_of_file ?(ops = op_names) ((path, src) : string * string) :
    mutant list =
  match Frontend.parse ~path src with
  | Error _ -> []
  | Ok p ->
      let base = Filename.basename path in
      List.concat_map
        (fun op ->
          match List.assoc_opt op collectors with
          | None -> []
          | Some collect ->
              let sites =
                collect p src
                |> List.sort (fun a b -> compare (a.s_line, a.s_note) (b.s_line, b.s_note))
              in
              let counts = Hashtbl.create 8 in
              List.filter_map
                (fun s ->
                  match apply_edits src s.s_edits with
                  | None -> None
                  | Some msrc -> (
                      match Frontend.parse ~path msrc with
                      | Error _ -> None
                      | Ok _ ->
                          let key = (op, s.s_line) in
                          let k =
                            Option.value (Hashtbl.find_opt counts key)
                              ~default:0
                          in
                          Hashtbl.replace counts key (k + 1);
                          let id =
                            Printf.sprintf "%s:%s:%d%s" op base s.s_line
                              (if k = 0 then ""
                               else Printf.sprintf "#%d" k)
                          in
                          Some
                            {
                              m_id = id;
                              m_op = op;
                              m_file = path;
                              m_line = s.s_line;
                              m_note = s.s_note;
                              m_src = msrc;
                            }))
                sites)
        ops

(** Valid mutants across a file set, in (file, operator, line) order. *)
let mutants ?ops (files : (string * string) list) : mutant list =
  List.concat_map (fun f -> mutants_of_file ?ops f) files
