(** Lock-order and lock-leak analysis (rules [lock-order], [lock-leak]).

    The locking mound is deadlock-free because every path acquires node
    locks in ancestor-before-descendant tree order (paper Listing 3:
    moundify locks parents before children, insert locks [c/2] before
    [c]). This analysis walks each function body in evaluation order
    with an abstract lock state and flags:

    - [lock-order]: an acquisition whose node index is {e provably} a
      strict ancestor of a node already held — descendant-then-ancestor
      is the deadlock-prone inversion;
    - [lock-leak]: a non-raising path that reaches the end of the
      function with a lock still held and no release in sight.

    Node indices are tracked symbolically in the paper's 1-based
    arithmetic: from a base expression, [e / 2] moves up one level and
    [2 * e] / [2 * e + 1] move down to the left/right child, so a held
    set like {[c/2]; then acquire [c]} proves parent-before-child while
    {[c]; then acquire [c/2]} is a must-inversion for every [c >= 2].
    Integer literals are paths from the root (node 1). The ancestor
    check is a {e must} judgment — unknown bits introduced by division
    never prove an inversion, so sibling acquisitions ([2n] then
    [2n+1]) pass.

    Soundness caveats (documented over/under-approximation):
    - a call to any function that transitively releases a lock is
      assumed to discharge {e every} held lock — the hand-over-hand
      idiom hands the whole chain to the callee (under-approximates
      leaks through such calls);
    - functions that acquire inside a closure passed to a higher-order
      function (the STM commit's write-set fold) are skipped entirely —
      the walk cannot track per-iteration state (under-approximates);
    - acquire/release primitives themselves (bodies performing the
      locking CAS / unlocking store) are exempt: they are the mechanism
      being built, not users of it;
    - branches are explored independently and joined by union, so a
      lock provably released on every branch is not a leak, and state
      explosion is capped — beyond the cap the function is skipped. *)

open Parsetree

type base = Root | Var of string | Opaque of int

type sym = { sbase : base; ups : int; downs : int list }

let opaque_ctr = ref 0

let fresh_opaque () =
  incr opaque_ctr;
  { sbase = Opaque !opaque_ctr; ups = 0; downs = [] }

let int_literal e =
  match (Summary.strip_casts e).pexp_desc with
  | Pexp_constant (Pconst_integer (s, None)) -> int_of_string_opt s
  | _ -> None

(* Bits of [k] after the leading 1: the root-to-node path of index [k]. *)
let path_of_index k =
  let rec go k acc = if k <= 1 then acc else go (k / 2) ((k land 1) :: acc) in
  go k []

let rec norm env e =
  let e = Summary.strip_casts e in
  match int_literal e with
  | Some k when k >= 1 -> { sbase = Root; ups = 0; downs = path_of_index k }
  | _ -> (
      match e.pexp_desc with
      | Pexp_ident { txt = Lident v; _ } -> (
          match List.assoc_opt v env with
          | Some s -> s
          | None -> { sbase = Var v; ups = 0; downs = [] })
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident op; _ }; _ }, args)
        -> (
          let nargs = Summary.nolabel_args args in
          match (op, nargs) with
          | "/", [ a; b ] when int_literal b = Some 2 -> (
              let s = norm env a in
              match List.rev s.downs with
              | _ :: rest -> { s with downs = List.rev rest }
              | [] -> { s with ups = s.ups + 1 })
          | "*", [ a; b ] -> (
              match (int_literal a, int_literal b) with
              | Some 2, None ->
                  let s = norm env b in
                  { s with downs = s.downs @ [ 0 ] }
              | None, Some 2 ->
                  let s = norm env a in
                  { s with downs = s.downs @ [ 0 ] }
              | _ -> fresh_opaque ())
          | "+", [ a; b ] -> (
              let side one x =
                if int_literal one = Some 1 then
                  let s = norm env x in
                  match List.rev s.downs with
                  | 0 :: rest -> Some { s with downs = List.rev (1 :: rest) }
                  | _ -> None
                else None
              in
              match side b a with
              | Some s -> Some s
              | None -> side a b)
              |> Option.value ~default:(fresh_opaque ())
          | _ -> fresh_opaque ())
      | _ -> fresh_opaque ())

let rec proper_prefix a b =
  match (a, b) with
  | [], [] -> false
  | [], _ :: _ -> true
  | _ :: _, [] -> false
  | x :: xs, y :: ys -> x = y && proper_prefix xs ys

(* [a] is a strict ancestor of [b] for {e every} valuation of the shared
   base. Raising above the base truncates unknown bits, so an ancestor
   judgment through extra [ups] only holds when [a] adds no definite
   bits of its own. Opaque bases never prove anything against others. *)
let must_strict_ancestor a b =
  let same =
    match (a.sbase, b.sbase) with
    | Root, Root -> true
    | Var x, Var y -> x = y
    | Opaque x, Opaque y -> x = y
    | _ -> false
  in
  same
  && (if a.ups > b.ups then a.downs = []
      else if a.ups = b.ups then proper_prefix a.downs b.downs
      else false)

(* ---- the abstract walk ------------------------------------------------- *)

type held = { hkey : string; hsym : sym; hline : int }

type state = { env : (string * sym) list; locks : held list }

let max_states = 64

(* A slot-fetch call binds the variable to the node index it names:
   [T.get_at t ~level:lvl i] / [T.get t i] — the index is the last
   unlabelled argument when there are at least two (Mcas.get takes one
   argument and is not a slot fetch). *)
let slot_fetch_index args =
  let nargs = Summary.nolabel_args args in
  if List.length nargs >= 2 then Some (List.nth nargs (List.length nargs - 1))
  else None

let arg_var e =
  match (Summary.strip_casts e).pexp_desc with
  | Pexp_ident { txt = Lident v; _ } -> Some v
  | _ -> None

exception Give_up

let scan_fn (cg : Callgraph.t) (f : Summary.fn) : Lint_rules.finding list =
  let findings = ref [] in
  let add line rule msg =
    findings := { Lint_rules.file = f.ffile; line; rule; msg } :: !findings
  in
  (* extra venv for functions let-bound inside this body *)
  let extra = ref [] in
  let resolve segs =
    let scope =
      { f.fscope with Summary.venv = !extra @ f.fscope.Summary.venv }
    in
    Callgraph.resolve ~from_file:f.ffile cg (Summary.resolve_call scope segs)
  in
  let closure_acquire = ref false in
  (* detect acquisitions inside closure arguments: per-iteration lock
     state is beyond this walk, skip such functions wholesale *)
  let rec detect in_closure e =
    match e.pexp_desc with
    | Pexp_apply (head, args) ->
        (match Summary.flatten_ident head with
        | Some segs when in_closure -> (
            match resolve segs with
            | Some j
              when (Callgraph.fn cg j).flock_param <> None
                   && (Callgraph.fn cg j).fdirect.acquires_lock ->
                closure_acquire := true
            | _ -> ())
        | _ -> ());
        List.iter
          (fun (_, a) ->
            match a.pexp_desc with
            | Pexp_fun _ | Pexp_function _ -> detect true a
            | _ -> detect in_closure a)
          args;
        detect in_closure head
    | _ ->
        (* default_iterator-free shallow recursion *)
        iter_children (detect in_closure) e
  and iter_children g e =
    match e.pexp_desc with
    | Pexp_let (_, vbs, cont) ->
        List.iter (fun vb -> g vb.pvb_expr) vbs;
        g cont
    | Pexp_sequence (a, b) ->
        g a;
        g b
    | Pexp_ifthenelse (c, t, e) ->
        g c;
        g t;
        Option.iter g e
    | Pexp_match (s, cs) | Pexp_try (s, cs) ->
        g s;
        List.iter (fun c -> g c.pc_rhs) cs
    | Pexp_function cs -> List.iter (fun c -> g c.pc_rhs) cs
    | Pexp_fun (_, _, _, b)
    | Pexp_lazy b
    | Pexp_newtype (_, b)
    | Pexp_constraint (b, _)
    | Pexp_open (_, b)
    | Pexp_assert b ->
        g b
    | Pexp_while (a, b) | Pexp_setfield (a, _, b) ->
        g a;
        g b
    | Pexp_for (_, a, b, _, c) ->
        g a;
        g b;
        g c
    | Pexp_record (fs, base) ->
        List.iter (fun (_, v) -> g v) fs;
        Option.iter g base
    | Pexp_tuple es | Pexp_array es -> List.iter g es
    | Pexp_construct (_, a) | Pexp_variant (_, a) -> Option.iter g a
    | Pexp_apply (h, args) ->
        g h;
        List.iter (fun (_, a) -> g a) args
    | _ -> ()
  in
  detect false f.fbody;
  if !closure_acquire then []
  else begin
    (* evaluation-order walk; [states] is the disjunction of abstract
       lock states reaching the current point; raising paths vanish *)
    let rec walk states e : state list =
      if List.length states > max_states then raise Give_up;
      let e = Summary.strip_casts e in
      match e.pexp_desc with
      | Pexp_let (_, vbs, cont) ->
          let states =
            List.fold_left
              (fun sts vb ->
                let ps, _ = Summary.fn_shape vb.pvb_expr in
                match Summary.pat_var vb.pvb_pat with
                | Some name when ps <> [] ->
                    (* nested function: callable later, body analyzed as
                       its own summary elsewhere *)
                    extra := (name, f.fpath @ [ name ]) :: !extra;
                    sts
                | Some name ->
                    let sts = walk sts vb.pvb_expr in
                    List.map
                      (fun st ->
                        let sym =
                          match
                            (Summary.strip_casts vb.pvb_expr).pexp_desc
                          with
                          | Pexp_apply (head, args) -> (
                              match Summary.flatten_ident head with
                              | Some segs -> (
                                  let last =
                                    List.nth segs (List.length segs - 1)
                                  in
                                  match
                                    (last, slot_fetch_index args)
                                  with
                                  | ("get_at" | "get"), Some idx ->
                                      Some (norm st.env idx)
                                  | _ -> None)
                              | None -> None)
                          | _ -> Some (norm st.env vb.pvb_expr)
                        in
                        match sym with
                        | Some s -> { st with env = (name, s) :: st.env }
                        | None -> st)
                      sts
                | None -> walk sts vb.pvb_expr)
              states vbs
          in
          walk states cont
      | Pexp_sequence (a, b) -> walk (walk states a) b
      | Pexp_ifthenelse (c, t, el) -> (
          let states = walk states c in
          let st = walk states t in
          match el with
          | Some el -> st @ walk states el
          | None -> st @ states)
      | Pexp_match (s, cases) | Pexp_try (s, cases) ->
          let states = walk states s in
          List.concat_map (fun c -> walk states c.pc_rhs) cases
      | Pexp_while (c, b) ->
          let states = walk states c in
          states @ walk states b
      | Pexp_for (_, a, b, _, body) ->
          let states = walk (walk states a) b in
          states @ walk states body
      | Pexp_apply (head, args) -> (
          let states =
            List.fold_left
              (fun sts (_, a) ->
                match a.pexp_desc with
                | Pexp_fun _ | Pexp_function _ -> sts (* closures: no acquires inside, per [detect] *)
                | _ -> walk sts a)
              states args
          in
          match Summary.flatten_ident head with
          | None -> walk states head
          | Some segs -> (
              let last = List.nth segs (List.length segs - 1) in
              if List.mem last Summary.raising_heads && List.length segs = 1
              then [] (* raise/failwith/invalid_arg: path ends *)
              else
                match resolve segs with
                | None -> states
                | Some j ->
                    let g = Callgraph.fn cg j in
                    let nargs = Summary.nolabel_args args in
                    if g.flock_param <> None && g.fdirect.acquires_lock
                    then
                      let k = Option.get g.flock_param in
                      let key, sym =
                        match List.nth_opt nargs k with
                        | Some a -> (
                            match arg_var a with
                            | Some v ->
                                ( v,
                                  List.assoc_opt v
                                    (List.concat_map
                                       (fun st -> st.env)
                                       states)
                                  |> Option.value
                                       ~default:(fresh_opaque ()) )
                            | None -> ("?", fresh_opaque ()))
                        | None -> ("?", fresh_opaque ())
                      in
                      let line = Frontend.line_of_loc e.pexp_loc in
                      List.map
                        (fun st ->
                          let sym =
                            match List.assoc_opt key st.env with
                            | Some s -> s
                            | None -> sym
                          in
                          List.iter
                            (fun h ->
                              if must_strict_ancestor sym h.hsym then
                                add line "lock-order"
                                  (Printf.sprintf
                                     "acquires an ancestor node while \
                                      holding its descendant (locked at \
                                      line %d); hand-over-hand order is \
                                      ancestor before descendant"
                                     h.hline))
                            st.locks;
                          {
                            st with
                            locks =
                              { hkey = key; hsym = sym; hline = line }
                              :: st.locks;
                          })
                        states
                    else if g.funlock_param <> None then
                      let k = Option.get g.funlock_param in
                      let key =
                        match List.nth_opt nargs k with
                        | Some a -> arg_var a
                        | None -> None
                      in
                      List.map
                        (fun st ->
                          {
                            st with
                            locks =
                              List.filter
                                (fun h -> Some h.hkey <> key)
                                st.locks;
                          })
                        states
                    else if (Callgraph.trans_effects cg j).releases_lock
                    then
                      (* hand-over-hand: the callee owns every held lock
                         now (moundify, or the recursive retry) *)
                      List.map (fun st -> { st with locks = [] }) states
                    else states))
      | Pexp_assert a -> (
          match (Summary.strip_casts a).pexp_desc with
          | Pexp_construct ({ txt = Lident "false"; _ }, None) -> []
          | _ -> walk states a)
      | Pexp_fun _ | Pexp_function _ -> states
      | Pexp_lazy a | Pexp_newtype (_, a) | Pexp_open (_, a) ->
          walk states a
      | Pexp_setfield (r, _, v) -> walk (walk states r) v
      | Pexp_record (fs, base) ->
          let states =
            List.fold_left (fun sts (_, v) -> walk sts v) states fs
          in
          (match base with Some b -> walk states b | None -> states)
      | Pexp_tuple es | Pexp_array es ->
          List.fold_left walk states es
      | Pexp_construct (_, a) | Pexp_variant (_, a) -> (
          match a with Some a -> walk states a | None -> states)
      | Pexp_field (a, _) -> walk states a
      | _ -> states
    in
    match walk [ { env = []; locks = [] } ] f.fbody with
    | exception Give_up -> []
    | final ->
        let leaked = Hashtbl.create 4 in
        List.iter
          (fun st ->
            List.iter
              (fun h ->
                if not (Hashtbl.mem leaked h.hline) then begin
                  Hashtbl.replace leaked h.hline ();
                  add h.hline "lock-leak"
                    (Printf.sprintf
                       "lock on %s acquired here can reach the end of %s \
                        still held; release it on every non-raising path"
                       h.hkey
                       (String.concat "." f.fpath))
                end)
              st.locks)
          final;
        List.rev !findings
  end

let scan (cg : Callgraph.t) : Lint_rules.finding list =
  Array.to_list (Callgraph.fns cg)
  |> List.concat_map (fun (f : Summary.fn) ->
         if Lint_rules.helping_exempt_path f.ffile then []
         else if
           (* the locking primitives themselves are the mechanism *)
           f.fdirect.acquires_lock || f.fdirect.releases_lock
         then []
         else scan_fn cg f)
