(** Per-function summaries over the Parsetree.

    For every function defined in a file — top-level, nested in modules
    and functors, or [let]-bound inside another function — this module
    records where it is, what it calls, and which primitive {e effect
    sites} its body contains:

    - {e performs-CAS}: a dotted call whose final component is one of the
      CAS family ([cas], [dcas], [dcss], [casn], [compare_and_set]);
    - {e helps}: a completing CAS — either its fresh value is a record
      literal carrying [dirty = false] (the moundify idiom, recognized by
      shape rather than by the callee's name), or the CAS result is
      statically discarded ([ignore (...)], [let _ =], sequence
      position), the one-shot completion idiom of {!Mcas.rdcss_complete}
      and {!Tree.expand}: any thread may fire it, exactly one takes
      effect, nobody retries on its account;
    - {e backs-off}: a call to [cpu_relax] (every backoff primitive in
      the tree bottoms out there);
    - {e acquires-lock}: a CAS whose fresh value is a record literal
      carrying [locked = true], or a bare boolean CAS from [false] to
      [true] — with the parameter index of the lock's location when the
      site locks one of the function's own parameters ([lock_param]);
    - {e releases-lock}: a dotted [set] storing a record literal carrying
      [locked = false], or storing literal [false];
    - {e allocates}: [Array.make]/[Array.init], [Bytes.create]/
      [Bytes.make], applied [ref], or [lazy].

    Calls are resolved through lexical scope — [let]-bound inner
    functions, value aliases ([let restore = moundify]) and module
    aliases ([module T = Tree.Make (R)]) — into full module-path
    segments, so the call graph sees through the renamings that defeat
    a token-level scanner. Sites inside a nested function are attributed
    to the nested function {e and} folded into its host, so a wrapper
    whose loop lives in an inner [let rec] still summarizes truthfully.

    [publishes] lists the parameters the function forwards into a CAS
    fresh-value position ({!Lf_mound}'s [cas_reusing]/[dcss_reusing]
    take the fresh record as an argument), letting the publication
    analysis treat such wrappers as publication sites. *)

open Parsetree

type effects = {
  performs_cas : bool;
  helps : bool;
  backs_off : bool;
  checks_deadline : bool;
  acquires_lock : bool;
  releases_lock : bool;
  allocates : bool;
  writes_nonatomically : bool;
      (* a dotted [set] that is not a lock release: a plain store into
         an atomic location, the sink of a lost update *)
}

let no_effects =
  {
    performs_cas = false;
    helps = false;
    backs_off = false;
    checks_deadline = false;
    acquires_lock = false;
    releases_lock = false;
    allocates = false;
    writes_nonatomically = false;
  }

let union_effects a b =
  {
    performs_cas = a.performs_cas || b.performs_cas;
    helps = a.helps || b.helps;
    backs_off = a.backs_off || b.backs_off;
    checks_deadline = a.checks_deadline || b.checks_deadline;
    acquires_lock = a.acquires_lock || b.acquires_lock;
    releases_lock = a.releases_lock || b.releases_lock;
    allocates = a.allocates || b.allocates;
    writes_nonatomically = a.writes_nonatomically || b.writes_nonatomically;
  }

type call = { callee : string list; call_line : int }

type fn = {
  fpath : string list;  (* e.g. ["Lock_mound"; "Make"; "set_lock"] *)
  ffile : string;
  fline : int;
  fparams : string list;
  fcalls : call list;
  fdirect : effects;
  flock_param : int option;  (* acquire primitive: param that is the slot *)
  funlock_param : int option;  (* release primitive: param that is the slot *)
  fpublishes : int list;  (* params forwarded to a CAS fresh-value slot *)
  fwrites : string list;
      (* syntactic keys of atomic locations this function writes — the
         CAS-target and dotted-[set] location names ([root], [slot]…) —
         so the ABA analysis can ask which locations are recycled by
         more than one function *)
  fbody : expression;
  fscope : scope;
      (* lexical scope at the function's entry, for re-resolving call
         sites during the per-body analyses; aliases bound later inside
         the body are only visible to the summary walk itself *)
}

and scope = {
  modpath : string list;
  menv : (string * string list) list;  (* module alias -> full path *)
  venv : (string * string list) list;  (* value alias / nested fn -> path *)
}

let cas_family = [ "cas"; "casn"; "dcas"; "dcss"; "compare_and_set" ]

(* Deadline awareness by vocabulary, the AST mirror of the token lint's
   [is_deadline]: a name (identifier segment or labelled argument)
   carrying the [_until] / [deadline] / [expired] vocabulary. *)
let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let deadline_name s =
  let s = String.lowercase_ascii s in
  contains_sub s "deadline" || contains_sub s "until"
  || contains_sub s "expired"

(* 0-based positions (among [Nolabel] arguments) of the freshly-published
   value for each CAS-family operation, and of the location being
   written. [casn] takes an array of triples — unanalyzed. *)
let fresh_positions = function
  | "cas" | "compare_and_set" -> [ 2 ]
  | "dcss" -> [ 4 ]
  | "dcas" -> [ 2; 5 ]
  | _ -> []

(* 0-based positions (among [Nolabel] arguments) of the locations each
   CAS-family operation writes. [dcss] only validates its first leg. *)
let write_positions = function
  | "cas" | "compare_and_set" -> [ 0 ]
  | "dcss" -> [ 2 ]
  | "dcas" -> [ 0; 3 ]
  | _ -> []

(* ---- small AST probes -------------------------------------------------- *)

let rec strip_casts e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> strip_casts e
  | _ -> e

let flatten_ident e =
  match (strip_casts e).pexp_desc with
  | Pexp_ident { txt; _ } -> ( try Some (Longident.flatten txt) with _ -> None)
  | _ -> None

(* The variable at the root of [v], [v.f], [v.f.g] — how lock locations
   and mutation receivers are written. *)
let rec base_var e =
  match (strip_casts e).pexp_desc with
  | Pexp_ident { txt = Lident v; _ } -> Some v
  | Pexp_field (e, _) -> base_var e
  | _ -> None

(* The syntactic key of a written atomic location: the last field name
   of [t.root] / [t.tree.rows], the variable itself for a bare [slot],
   the receiver's key for an indexing call like [t.rows.(d)]. *)
let rec loc_write_key e =
  match (strip_casts e).pexp_desc with
  | Pexp_ident { txt = Lident v; _ } -> Some v
  | Pexp_field (_, { txt; _ }) -> (
      match List.rev (try Longident.flatten txt with _ -> []) with
      | f :: _ -> Some f
      | [] -> None)
  | Pexp_apply (_, (Asttypes.Nolabel, a) :: _) -> loc_write_key a
  | _ -> None

let is_bool_lit b e =
  match (strip_casts e).pexp_desc with
  | Pexp_construct ({ txt = Lident c; _ }, None) ->
      c = (if b then "true" else "false")
  | _ -> false

(* A record literal (or functional update) binding [field] to the boolean
   literal [b] — [{ list; locked = true }], [{ s with locked = true }]. *)
let record_sets_field field b e =
  match (strip_casts e).pexp_desc with
  | Pexp_record (fields, _) ->
      List.exists
        (fun ((lid : Longident.t Asttypes.loc), v) ->
          (match lid.txt with Longident.Lident f -> f = field | _ -> false)
          && is_bool_lit b v)
        fields
  | _ -> false

let is_fresh_value e =
  match (strip_casts e).pexp_desc with
  | Pexp_record _ -> true
  | Pexp_construct (_, _) -> true
  | Pexp_tuple _ -> true
  | _ -> false

let pat_var p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
  | _ -> None

(* Unwrap a binding's function structure: parameter patterns (in order)
   and the innermost body. A [function]-style body contributes one
   anonymous parameter. *)
let rec fn_shape e =
  match e.pexp_desc with
  | Pexp_fun (_, _, pat, body) ->
      let params, inner = fn_shape body in
      (Option.value (pat_var pat) ~default:"_" :: params, inner)
  | Pexp_newtype (_, body) -> fn_shape body
  | Pexp_constraint (body, _) -> fn_shape body
  | Pexp_function _ -> ([ "_" ], e)
  | _ -> ([], e)

(* ---- scoped call resolution -------------------------------------------- *)

let resolve_module scope m =
  match List.assoc_opt m scope.menv with Some p -> p | None -> [ m ]

let resolve_call scope segs =
  match segs with
  | [ s ] -> (
      match List.assoc_opt s scope.venv with
      | Some p -> p
      | None -> scope.modpath @ [ s ])
  | m :: rest -> resolve_module scope m @ rest
  | [] -> []

(* ---- the body walk ----------------------------------------------------- *)

let rec module_head (m : module_expr) =
  match m.pmod_desc with
  | Pmod_ident { txt; _ } -> ( try Some (Longident.flatten txt) with _ -> None)
  | Pmod_apply (f, _) -> module_head f
  | Pmod_constraint (m, _) -> module_head m
  | _ -> None

type collector = {
  mutable calls : call list;
  mutable eff : effects;
  mutable lock_param : int option;
  mutable unlock_param : int option;
  mutable publishes : int list;
  mutable writes : string list;
  mutable out : fn list;  (* nested functions, innermost first *)
}

let nolabel_args args =
  List.filter_map
    (fun (lbl, e) -> if lbl = Asttypes.Nolabel then Some e else None)
    args

let param_index params v =
  let rec go i = function
    | [] -> None
    | p :: _ when p = v -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 params

let raising_heads = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

(* Walk [expr] collecting the current function's facts into [col],
   registering nested [let]-bound functions as their own summaries (and
   folding their facts into the host). [disc] is true when the value of
   [expr] is statically discarded. *)
let rec walk ~file ~scope ~params ~fnpath col disc expr =
  let self = walk ~file ~scope ~params ~fnpath col in
  match expr.pexp_desc with
  | Pexp_apply (head, args) -> (
      List.iter
        (fun (lbl, _) ->
          match lbl with
          | Asttypes.Labelled s | Asttypes.Optional s ->
              if deadline_name s then
                col.eff <- { col.eff with checks_deadline = true }
          | Asttypes.Nolabel -> ())
        args;
      List.iter
        (fun (_, a) ->
          match a.pexp_desc with
          | Pexp_fun _ | Pexp_function _ ->
              (* a closure argument runs under its consumer; its sites
                 belong to this function *)
              let _, inner = fn_shape a in
              self false inner
          | _ -> self false a)
        args;
      match flatten_ident head with
      | None -> self false head
      | Some segs ->
          let last = List.nth segs (List.length segs - 1) in
          let dotted = List.length segs >= 2 in
          let resolved = resolve_call scope segs in
          let line = Frontend.line_of_loc expr.pexp_loc in
          col.calls <- { callee = resolved; call_line = line } :: col.calls;
          if List.exists deadline_name segs then
            col.eff <- { col.eff with checks_deadline = true };
          let nargs = nolabel_args args in
          let arg i = List.nth_opt nargs i in
          if dotted && List.mem last cas_family then begin
            col.eff <- { col.eff with performs_cas = true };
            List.iter
              (fun e ->
                match loc_write_key e with
                | Some k when not (List.mem k col.writes) ->
                    col.writes <- k :: col.writes
                | _ -> ())
              (List.filter_map arg (write_positions last));
            let fresh_args = List.filter_map arg (fresh_positions last) in
            (* completing CAS: publishes a clean record, or fires blind *)
            if
              disc
              || List.exists (record_sets_field "dirty" false) fresh_args
            then col.eff <- { col.eff with helps = true };
            (* acquire shape: locks a record, or a bare boolean lock *)
            let bool_lock =
              last = "compare_and_set"
              && (match arg 1 with Some e -> is_bool_lit false e | None -> false)
              && match arg 2 with Some e -> is_bool_lit true e | None -> false
            in
            if
              List.exists (record_sets_field "locked" true) fresh_args
              || bool_lock
            then begin
              col.eff <- { col.eff with acquires_lock = true };
              match arg 0 with
              | Some loc_e -> (
                  match base_var loc_e with
                  | Some v -> (
                      match param_index params v with
                      | Some i when col.lock_param = None ->
                          col.lock_param <- Some i
                      | _ -> ())
                  | None -> ())
              | None -> ()
            end;
            (* params forwarded as the fresh value *)
            List.iter
              (fun e ->
                match base_var (strip_casts e) with
                | Some v -> (
                    match ((strip_casts e).pexp_desc, param_index params v)
                    with
                    | Pexp_ident _, Some i
                      when not (List.mem i col.publishes) ->
                        col.publishes <- i :: col.publishes
                    | _ -> ())
                | None -> ())
              fresh_args
          end
          else if dotted && last = "set" && List.length nargs = 2 then begin
            (* exactly [X.set loc v] — the atomic-store shape; [a.(i) <-
               x] desugars to the 3-argument [Array.set] and is a plain
               heap write, not a shared-location store *)
            (match arg 0 with
            | Some loc_e -> (
                match loc_write_key loc_e with
                | Some k when not (List.mem k col.writes) ->
                    col.writes <- k :: col.writes
                | _ -> ())
            | None -> ());
            match arg 1 with
            | Some v
              when record_sets_field "locked" false v || is_bool_lit false v
              -> begin
                col.eff <- { col.eff with releases_lock = true };
                match arg 0 with
                | Some loc_e -> (
                    match base_var loc_e with
                    | Some bv -> (
                        match param_index params bv with
                        | Some i when col.unlock_param = None ->
                            col.unlock_param <- Some i
                        | _ -> ())
                    | None -> ())
                | None -> ()
              end
            | Some _ ->
                col.eff <- { col.eff with writes_nonatomically = true }
            | None -> ()
          end
          else if last = "cpu_relax" then
            col.eff <- { col.eff with backs_off = true }
          else if
            (match segs with
            | [ "Array"; ("make" | "init") ] -> true
            | [ "Bytes"; ("create" | "make") ] -> true
            | _ -> false)
            || (segs = [ "ref" ] && nargs <> [])
          then col.eff <- { col.eff with allocates = true }
          else if segs = [ "ignore" ] then
            (* re-walk the argument as discarded; the generic arg walk
               above already visited it undiscarded, which only matters
               for the helps bit, set here *)
            List.iter (fun (_, a) -> self true a) args
          else if List.mem last raising_heads && not dotted then ())
  | Pexp_let (_, vbs, cont) ->
      List.iter
        (fun vb ->
          match pat_var vb.pvb_pat with
          | Some name -> (
              let ps, _ = fn_shape vb.pvb_expr in
              if ps <> [] then begin
                (* nested function: its own summary, folded into ours *)
                let inner_scope =
                  {
                    scope with
                    venv = (name, fnpath @ [ name ]) :: scope.venv;
                  }
                in
                let nested =
                  collect_fn ~file ~scope:inner_scope
                    ~fnpath:(fnpath @ [ name ])
                    ~line:(Frontend.line_of_loc vb.pvb_loc)
                    vb.pvb_expr
                in
                col.out <- nested @ col.out;
                (* fold the nested body into the host under the HOST's
                   parameters: a lock acquired by an inner spin loop on
                   a slot the host received ([set_lock]'s shape) makes
                   the host itself the acquirer *)
                let col2 =
                  {
                    calls = [];
                    eff = no_effects;
                    lock_param = None;
                    unlock_param = None;
                    publishes = [];
                    writes = [];
                    out = [];
                  }
                in
                walk ~file ~scope:inner_scope ~params ~fnpath col2 false
                  vb.pvb_expr;
                col.eff <- union_effects col.eff col2.eff;
                col.calls <- List.rev_append col2.calls col.calls;
                if col.lock_param = None then
                  col.lock_param <- col2.lock_param;
                if col.unlock_param = None then
                  col.unlock_param <- col2.unlock_param;
                List.iter
                  (fun p ->
                    if not (List.mem p col.publishes) then
                      col.publishes <- p :: col.publishes)
                  col2.publishes;
                List.iter
                  (fun k ->
                    if not (List.mem k col.writes) then
                      col.writes <- k :: col.writes)
                  col2.writes
              end
              else
                match flatten_ident vb.pvb_expr with
                | Some segs ->
                    (* value alias: [let restore = moundify] *)
                    ignore segs
                | None -> self false vb.pvb_expr)
          | None ->
              let d =
                match vb.pvb_pat.ppat_desc with
                | Ppat_any -> true
                | _ -> false
              in
              self d vb.pvb_expr)
        vbs;
      (* aliases and nested names extend scope for the continuation *)
      let scope' =
        List.fold_left
          (fun sc vb ->
            match pat_var vb.pvb_pat with
            | Some name -> (
                let ps, _ = fn_shape vb.pvb_expr in
                if ps <> [] then
                  { sc with venv = (name, fnpath @ [ name ]) :: sc.venv }
                else
                  match flatten_ident vb.pvb_expr with
                  | Some segs ->
                      {
                        sc with
                        venv = (name, resolve_call sc segs) :: sc.venv;
                      }
                  | None -> sc)
            | None -> sc)
          scope vbs
      in
      walk ~file ~scope:scope' ~params ~fnpath col disc cont
  | Pexp_sequence (e1, e2) ->
      self true e1;
      self disc e2
  | Pexp_ifthenelse (c, t, e) ->
      self false c;
      self disc t;
      Option.iter (self disc) e
  | Pexp_match (s, cases) | Pexp_try (s, cases) ->
      self false s;
      List.iter (fun c -> self disc c.pc_rhs) cases
  | Pexp_function cases -> List.iter (fun c -> self false c.pc_rhs) cases
  | Pexp_fun (_, _, _, body) -> self false body
  | Pexp_while (c, b) ->
      self false c;
      self true b
  | Pexp_for (_, a, b, _, body) ->
      self false a;
      self false b;
      self true body
  | Pexp_lazy e ->
      col.eff <- { col.eff with allocates = true };
      self false e
  | Pexp_setfield (r, _, v) ->
      self false r;
      self false v
  | Pexp_field (e, _) | Pexp_newtype (_, e) | Pexp_constraint (e, _)
  | Pexp_coerce (e, _, _) | Pexp_open (_, e) | Pexp_assert e ->
      self false e
  | Pexp_record (fields, base) ->
      List.iter (fun (_, v) -> self false v) fields;
      Option.iter (self false) base
  | Pexp_tuple es | Pexp_array es -> List.iter (self false) es
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) ->
      Option.iter (self false) arg
  | Pexp_letmodule (name, me, e) ->
      (* [let module A = Atomic in …]: the local alias must resolve like
         a structure-level one, or calls through it lose their target *)
      let scope' =
        match (name.txt, module_head me) with
        | Some n, Some (hd :: rest) ->
            { scope with menv = (n, resolve_module scope hd @ rest) :: scope.menv }
        | _ -> scope
      in
      walk ~file ~scope:scope' ~params ~fnpath col disc e
  | Pexp_ident _ -> (
      match flatten_ident expr with
      | Some segs when List.exists deadline_name segs ->
          col.eff <- { col.eff with checks_deadline = true }
      | _ -> ())
  | _ -> ()

(* Summarize one function binding; returns the function followed by its
   nested functions. *)
and collect_fn ~file ~scope ~fnpath ~line e : fn list =
  let params, body = fn_shape e in
  let col =
    {
      calls = [];
      eff = no_effects;
      lock_param = None;
      unlock_param = None;
      publishes = [];
      writes = [];
      out = [];
    }
  in
  walk ~file ~scope ~params ~fnpath col false body;
  {
    fpath = fnpath;
    ffile = file;
    fline = line;
    fparams = params;
    fcalls = List.rev col.calls;
    fdirect = col.eff;
    flock_param = col.lock_param;
    funlock_param = col.unlock_param;
    fpublishes = List.sort compare col.publishes;
    fwrites = List.sort_uniq compare col.writes;
    fbody = body;
    fscope = scope;
  }
  :: List.rev col.out

(* ---- structures and modules -------------------------------------------- *)

let rec walk_module ~file ~scope name (m : module_expr) : fn list * scope =
  match m.pmod_desc with
  | Pmod_structure items ->
      let fns =
        walk_structure ~file
          ~scope:{ scope with modpath = scope.modpath @ [ name ] }
          items
      in
      (* register the nested module itself: later references
         ([Helpers.finish], or a local [module H = Helpers]) must
         resolve to the definition's full path *)
      ( fns,
        {
          scope with
          menv = (name, scope.modpath @ [ name ]) :: scope.menv;
        } )
  | Pmod_functor (_, body) -> walk_module ~file ~scope name body
  | Pmod_constraint (m, _) -> walk_module ~file ~scope name m
  | Pmod_ident _ | Pmod_apply _ -> (
      match module_head m with
      | Some (hd :: rest) ->
          let target = resolve_module scope hd @ rest in
          ([], { scope with menv = (name, target) :: scope.menv })
      | _ -> ([], scope))
  | _ -> ([], scope)

and walk_structure ~file ~scope items : fn list =
  let scope = ref scope in
  let acc = ref [] in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match pat_var vb.pvb_pat with
              | Some name -> (
                  let ps, _ = fn_shape vb.pvb_expr in
                  if ps <> [] then
                    acc :=
                      collect_fn ~file ~scope:!scope
                        ~fnpath:(!scope.modpath @ [ name ])
                        ~line:(Frontend.line_of_loc vb.pvb_loc)
                        vb.pvb_expr
                      :: !acc
                  else
                    match flatten_ident vb.pvb_expr with
                    | Some segs ->
                        scope :=
                          {
                            !scope with
                            venv =
                              (name, resolve_call !scope segs) :: !scope.venv;
                          }
                    | None -> ())
              | None -> ())
            vbs
      | Pstr_module mb ->
          let name = Option.value mb.pmb_name.txt ~default:"_" in
          let fns, scope' = walk_module ~file ~scope:!scope name mb.pmb_expr in
          acc := fns :: !acc;
          scope := scope'
      | Pstr_recmodule mbs ->
          List.iter
            (fun mb ->
              let name = Option.value mb.pmb_name.txt ~default:"_" in
              let fns, scope' =
                walk_module ~file ~scope:!scope name mb.pmb_expr
              in
              acc := fns :: !acc;
              scope := scope')
            mbs
      | _ -> ())
    items;
  List.concat (List.rev !acc)

let of_parsed (p : Frontend.parsed) : fn list =
  let root = Frontend.module_name_of_path p.p_path in
  walk_structure ~file:p.p_path
    ~scope:{ modpath = [ root ]; menv = []; venv = [] }
    p.p_ast
