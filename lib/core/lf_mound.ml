(** Lock-free mound (paper §III, Listing 2).

    Each tree node is an {!Mcas} location holding an immutable record
    [{list; dirty; seq}] — the paper's ⟨list, dirty, c⟩ triple. A single
    [Mcas.get] is the paper's atomic READ; publishing a fresh record per
    update gives the counter-stamped-CAS semantics of the paper (we keep
    the [seq] counter for fidelity and diagnostics, but in OCaml physical
    equality on the fresh record already rules out ABA).

    - [insert] finds a candidate with randomized leaf probing + binary
      search (O(log log N) reads), re-validates the candidate and its
      parent, and linearizes with a single CAS (at the root) or DCSS
      (elsewhere) — L4–L15.
    - [extract_min] linearizes with a CAS that removes the root list's
      head and sets the root dirty, then restores the mound property with
      [moundify] — L22–L32.
    - [moundify] fixes one parent/children triangle at a time with a DCAS
      list swap, helping any dirty child first; concurrent operations that
      meet the same dirty node help each other — L33–L58.

    Progress: every loop iteration that fails does so because some CAS,
    DCSS or DCAS by another thread succeeded, and the {!Mcas} operations
    are themselves lock-free, so the structure is lock-free. *)

module Make (R : Runtime.S) (Ord : Intf.ORDERED) = struct
  module M = Mcas.Make (R.Atomic)
  module T = Tree.Make (R)
  module B = Runtime.Backoff.Make (R)

  type elt = Ord.t

  type mnode = { list : elt list; dirty : bool; seq : int }

  type t = { tree : mnode M.loc T.t; ops : Stats.Ops.t }

  let vcompare = Intf.Value.compare Ord.compare

  let node_value n = match n.list with [] -> None | x :: _ -> Some x

  let create ?threshold ?init_depth () =
    let make_slot () = M.make { list = []; dirty = false; seq = 0 } in
    { tree = T.create ?threshold ?init_depth make_slot; ops = Stats.Ops.create () }

  (** Retry / helping / backoff counters since creation. Exact and
      deterministic under the simulator; racy (diagnostic) on real
      domains. *)
  let ops t = t.ops

  let depth t = T.depth t.tree

  let read t i = M.get (T.get t.tree i)

  (* ----- moundify: restore the mound property at a dirty node ----- *)

  (* [level] must be ⌊log₂ n⌋: the traversal always knows it (the root
     is level 0, children are one deeper), so node slots are fetched
     with [get_at] instead of recomputing the level on every access. *)
  let rec moundify t n ~level =
    let slot = T.get_at t.tree ~level n in
    let node = M.get slot in
    let d = T.depth t.tree in
    if not node.dirty then () (* helped by someone else — L36 *)
    else if T.is_leaf n ~depth:d then begin
      (* L37–L39: a leaf trivially satisfies the property. *)
      if
        M.cas slot node { list = node.list; dirty = false; seq = node.seq + 1 }
      then ()
      else moundify t n ~level
    end
    else begin
      let lslot = T.get_at t.tree ~level:(level + 1) (2 * n)
      and rslot = T.get_at t.tree ~level:(level + 1) ((2 * n) + 1) in
      let left = M.get lslot in
      let right = M.get rslot in
      if left.dirty then begin
        (* dirtied by another operation: helping (L41–L44) *)
        t.ops.helps <- t.ops.helps + 1;
        moundify t (2 * n) ~level:(level + 1);
        moundify t n ~level
      end
      else if right.dirty then begin
        t.ops.helps <- t.ops.helps + 1;
        moundify t ((2 * n) + 1) ~level:(level + 1);
        moundify t n ~level
      end
      else begin
        let vn = node_value node
        and vl = node_value left
        and vr = node_value right in
        if vcompare vl vr <= 0 && vcompare vl vn < 0 then begin
          (* Swap lists with the left child (L48–L51). The child becomes
             dirty and is cleaned recursively. *)
          if
            M.dcas slot node
              { list = left.list; dirty = false; seq = node.seq + 1 }
              lslot left
              { list = node.list; dirty = true; seq = left.seq + 1 }
          then moundify t (2 * n) ~level:(level + 1)
          else moundify t n ~level
        end
        else if vcompare vr vl < 0 && vcompare vr vn < 0 then begin
          if
            M.dcas slot node
              { list = right.list; dirty = false; seq = node.seq + 1 }
              rslot right
              { list = node.list; dirty = true; seq = right.seq + 1 }
          then moundify t ((2 * n) + 1) ~level:(level + 1)
          else moundify t n ~level
        end
        else begin
          (* L56–L58: the node already dominates both children. *)
          if
            M.cas slot node
              { list = node.list; dirty = false; seq = node.seq + 1 }
          then ()
          else moundify t n ~level
        end
      end
    end

  (* ----- spurious-failure-tolerant publication ----- *)

  (* Under the chaos runtime a weak CAS can fail with the location
     observably unchanged. Re-attempting with the same fresh record
     costs nothing; re-probing the tree and re-allocating the record
     would. Both loops exit at the first real change (physical
     inequality), so on the default runtimes they never iterate. *)

  (* lint: allow — retries only while the location is observably
     unchanged, i.e. on spurious weak-CAS failure; a real change exits *)
  let rec cas_reusing slot cur fresh =
    M.cas slot cur fresh
    || (M.get slot == cur && cas_reusing slot cur fresh)

  (* lint: allow — same spurious-failure-only retry as cas_reusing *)
  let rec dcss_reusing pslot parent cslot cur fresh =
    M.dcss pslot parent cslot cur fresh
    || M.get cslot == cur
       && M.get pslot == parent
       && dcss_reusing pslot parent cslot cur fresh

  (* ----- deadlines ----- *)

  (* Absolute [R.monotonic_ns] stamp; [Intf.no_deadline] short-circuits
     so the unbounded paths never read the clock. *)
  let expired ~deadline =
    deadline <> Intf.no_deadline && R.monotonic_ns () > deadline

  let bump_timeout t = t.ops.deadline_timeouts <- t.ops.deadline_timeouts + 1

  (* ----- insert ----- *)

  (* After this many failed candidate selections, stop re-rolling random
     leaves and take the deterministic escape hatch below. *)
  let max_insert_rounds = 8

  (* The paper's escape hatch for repeated selection failures: abandon
     randomized probing and binary-search the leftmost root-to-leaf
     chain (falling back toward the root — the root itself is the
     candidate when [v] dominates the whole chain). If even the leftmost
     leaf does not dominate [v], the tree grows a level; a fresh leaf is
     empty (⊤), so this loop always produces a candidate without further
     randomization. *)
  let rec fallback_point_lv t ~ge =
    let d = T.depth t.tree in
    let leaf = 1 lsl (d - 1) in
    if ge leaf then T.binary_search_lv ~ge leaf d
    else begin
      T.expand t.tree d;
      fallback_point_lv t ~ge
    end

  (* The probe predicate for [v]: may it be pushed onto node [i]? Built
     once per call and threaded through the retries, so no attempt
     allocates a fresh closure. *)
  let fits t v i = Intf.Value.ge_elt Ord.compare (node_value (read t i)) v

  (* The one insert publication (L4–L15, and §V's batch splice). Select
     the insert point for [hd] — randomized probing for the first
     [max_insert_rounds] rounds, the escape hatch after — re-validate
     it, and publish [hd] together with the longest prefix of the sorted
     [rest] that the node's value bounds, in one CAS at the root or one
     DCSS elsewhere. [Ok left] returns the part of [rest] not placed;
     [Rejected] means the attempt lost a race and placed nothing. *)
  let publish t hd rest ~ge round =
    let c, clvl =
      if round < max_insert_rounds then T.find_insert_point_lv t.tree ~ge
      else begin
        if round = max_insert_rounds then begin
          t.ops.root_fallbacks <- t.ops.root_fallbacks + 1;
          (* a full round budget burned without landing the insert *)
          t.ops.livelock_near_misses <- t.ops.livelock_near_misses + 1
        end;
        fallback_point_lv t ~ge
      end
    in
    let cslot = T.get_at t.tree ~level:clvl c in
    let cur = M.get cslot in
    let limit = node_value cur in
    (* Double-check the candidate (L7): probing was unsynchronized. *)
    if not (Intf.Value.ge_elt Ord.compare limit hd) then Intf.Rejected
    else begin
      let list, left =
        match rest with
        | [] -> (hd :: cur.list, [])
        | _ ->
            let prefix, left = Intf.Value.split_prefix Ord.compare limit rest in
            (hd :: (prefix @ cur.list), left)
      in
      let fresh = { list; dirty = cur.dirty; seq = cur.seq + 1 } in
      if c = 1 then
        (* Root insert linearizes with a plain CAS (L9–L10). *)
        if cas_reusing cslot cur fresh then Intf.Ok left else Intf.Rejected
      else
        let pslot = T.get_at t.tree ~level:(clvl - 1) (c / 2) in
        let parent = M.get pslot in
        (* DCSS: write the child only if the parent is unchanged
           (L12–L14). *)
        if
          Intf.Value.le_elt Ord.compare (node_value parent) hd
          && dcss_reusing pslot parent cslot cur fresh
        then Intf.Ok left
        else Intf.Rejected
    end

  (* A first failure retries immediately (benign race, exactly the
     paper's loop); sustained failure backs off exponentially so
     contending inserters spread out instead of re-colliding. A deadline
     is checked here, between attempts, so a [Timeout] can only be
     returned with the element unpublished. *)
  let rec insert_loop t v ~ge ~deadline round =
    match publish t v [] ~ge round with
    | Intf.Ok _ -> Intf.Ok ()
    | Timeout | Rejected ->
        t.ops.insert_retries <- t.ops.insert_retries + 1;
        if expired ~deadline then begin
          bump_timeout t;
          Intf.Timeout
        end
        else begin
          if round > 0 then begin
            t.ops.insert_backoffs <- t.ops.insert_backoffs + 1;
            B.exponential ~cap_bits:6 (round - 1)
          end;
          insert_loop t v ~ge ~deadline (round + 1)
        end

  let insert_until t ~deadline v = insert_loop t v ~ge:(fits t v) ~deadline 0

  let insert t v =
    match insert_until t ~deadline:Intf.no_deadline v with
    | Intf.Ok () -> ()
    | Timeout | Rejected -> assert false (* no deadline, no admission *)

  (** One publication attempt with a deadline that has already passed:
      probe, validate, and attempt the linearizing CAS/DCSS once
      (re-issuing only on spurious weak-CAS failure). Any real
      interference reports [false] instead of retrying. *)
  let try_insert t v =
    match publish t v [] ~ge:(fits t v) 0 with
    | Intf.Ok _ -> true
    | Timeout | Rejected ->
        t.ops.rejected <- t.ops.rejected + 1;
        false

  (** Alternative insert for the ablation study: the paper's §III-D opens
      with "the simplest technique for making insert lock-free is to use a
      k-compare-single-swap operation (k-CSS), in which the entire set of
      nodes that are read in the binary search are kept constant during
      the insertion" — before showing that validating only the
      parent/child pair (the DCSS of {!insert}) suffices. This version
      implements the naive k-CSS scheme with a CASN whose upper legs
      rewrite each ancestor to itself, so benches can quantify what the
      DCSS insight saves. *)
  (* lint: allow — deliberately naive ablation baseline: the paper's
     strawman k-CSS insert retries without backoff by construction *)
  let rec insert_kcss t v =
    let c = T.find_insert_point t.tree ~ge:(fits t v) in
    (* Snapshot the whole ancestor chain root..c. *)
    let rec chain i acc = if i = 0 then acc else chain (i / 2) (i :: acc) in
    let path = chain c [] in
    let snap = List.map (fun i -> (i, M.get (T.get t.tree i))) path in
    let valid =
      List.for_all
        (fun (i, node) ->
          if i = c then Intf.Value.ge_elt Ord.compare (node_value node) v
          else Intf.Value.le_elt Ord.compare (node_value node) v)
        snap
    in
    if not valid then insert_kcss t v
    else
      let ops =
        List.map
          (fun (i, node) ->
            let slot = T.get t.tree i in
            if i = c then
              (slot, node,
               { list = v :: node.list; dirty = node.dirty; seq = node.seq + 1 })
            else (slot, node, node))
          snap
        |> Array.of_list
      in
      if not (M.casn ops) then insert_kcss t v

  (* Attempts per run before conceding the head to element-wise
     [insert] (which carries the backoff) and resuming batching. *)
  let batch_tries = 4

  (** Insert a {e sorted} batch — the dual of [extract_many], for
      returning unconsumed work to the pool. Each round publishes the
      current head with the longest prefix that fits its insert point,
      so probing and binary search are amortized over the whole run
      instead of paid per element. Under contention the head falls back
      to the element-wise [insert] and batching resumes with the
      remainder. *)
  let insert_many t batch =
    let rec go batch tries =
      match batch with
      | [] -> ()
      | hd :: rest ->
          if tries = 0 then begin
            insert t hd;
            go rest batch_tries
          end
          else begin
            match publish t hd rest ~ge:(fits t hd) 0 with
            | Intf.Ok left -> go left batch_tries
            | Timeout | Rejected -> go batch (tries - 1)
          end
    in
    go batch batch_tries

  (* ----- extraction ----- *)

  (* Consecutive non-progress iterations of one extraction before the
     attempt is counted as a livelock near miss: sustained spinning that
     eventually resolved, the dynamic shadow of the liveness checker. *)
  let near_miss_spins = 8

  exception Gave_up

  (* The one take (L22–L32, and §V's extract-many and probabilistic
     extract): remove node [n]'s head — with [~all] its whole list — by
     one CAS that also marks the node dirty, then restore the mound
     property below it. Any non-dirty node roots a sub-mound, so its
     head is that sub-mound's minimum. Returns the list as it was before
     the take, [[]] for an empty node (linearizing at the READ, L27).
     The deadline is checked only on retries — the first attempt always
     runs, so a generous deadline never turns into a spurious timeout —
     and [Gave_up] is raised with nothing removed. *)
  let rec take t n ~level ~all ~deadline spin =
    if spin = near_miss_spins then
      t.ops.livelock_near_misses <- t.ops.livelock_near_misses + 1;
    if spin > 0 && expired ~deadline then raise_notrace Gave_up
    else
      let slot = T.get_at t.tree ~level n in
      let node = M.get slot in
      if node.dirty then begin
        (* An extraction is mid-flight; help restore the property
           (L24–L26). *)
        t.ops.helps <- t.ops.helps + 1;
        moundify t n ~level;
        take t n ~level ~all ~deadline (spin + 1)
      end
      else
        match node.list with
        | [] -> []
        | _ :: tl ->
            let left = if all then [] else tl in
            if
              cas_reusing slot node
                { list = left; dirty = true; seq = node.seq + 1 }
            then begin
              moundify t n ~level;
              node.list
            end
            else begin
              t.ops.extract_retries <- t.ops.extract_retries + 1;
              take t n ~level ~all ~deadline (spin + 1)
            end

  let extract_min t =
    match take t 1 ~level:0 ~all:false ~deadline:Intf.no_deadline 0 with
    | [] -> None
    | hd :: _ -> Some hd

  let extract_min_until t ~deadline =
    match take t 1 ~level:0 ~all:false ~deadline 0 with
    | [] -> Intf.Ok None
    | hd :: _ -> Intf.Ok (Some hd)
    | exception Gave_up ->
        bump_timeout t;
        Intf.Timeout

  (** Take the root's whole sorted list in one linearizable step (§V). *)
  let extract_many t =
    take t 1 ~level:0 ~all:true ~deadline:Intf.no_deadline 0

  (** Probabilistic extract-min (§V): take the head of a random node
      within the first [max_level+1] levels — the minimum of the
      sub-mound rooted there, probably close to the global minimum, at
      much lower contention. Falls back to the exact operation when the
      probed node is empty. *)
  let extract_approx ?(max_level = 2) t =
    let lvl = min max_level (T.depth t.tree - 1) in
    let n = 1 + R.rand_int ((1 lsl (lvl + 1)) - 1) in
    match
      take t n ~level:(T.level_of n) ~all:false ~deadline:Intf.no_deadline 0
    with
    | [] -> extract_min t
    | hd :: _ -> Some hd

  let rec peek_min t =
    let root = read t 1 in
    if root.dirty then begin
      t.ops.helps <- t.ops.helps + 1;
      moundify t 1 ~level:0;
      peek_min t
    end
    else node_value root

  let is_empty t = peek_min t = None

  (* ----- quiescent introspection (stats, tests) ----- *)

  let fold_nodes t f acc =
    T.fold t.tree (fun acc i slot -> f acc i (M.get slot).list) acc

  let size t = fold_nodes t (fun acc _ l -> acc + List.length l) 0

  (** Quiescent check of per-list sortedness and the (dirty-aware) mound
      property of §II: a non-dirty parent dominates its children. *)
  let check t =
    fold_nodes t
      (fun ok i l ->
        ok && Intf.Value.list_sorted Ord.compare l
        &&
        if i = 1 then true
        else
          let parent = read t (i / 2) in
          parent.dirty
          || Intf.Value.le Ord.compare (node_value parent)
               (match l with [] -> None | x :: _ -> Some x))
      true
end
