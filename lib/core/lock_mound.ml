(** Fine-grained locking mound (paper §IV, Listing 3).

    Each node is an atomic holding an immutable [{list; locked; seq}]
    record — the paper reuses the dirty field as the lock bit, and
    unlocked nodes are never dirty. [set_lock] is a test-and-CAS spinlock
    on the node; the [seq] stamp increments on every transition, so each
    lock tenure is identified by the physically-unique locked record the
    holder installed (its {e witness}).

    [moundify] performs the downward restoration with hand-over-hand
    locking, always locking parents before children; [insert] locks the
    insertion point's parent before the insertion point for the same
    global order, which makes the scheme deadlock-free. Compared with the
    lock-free variant, a critical section that would take one software
    DCAS (≈5 CAS) costs at most three plain CAS acquisitions here —
    the latency advantage the paper measures.

    {2 Lease-based wedge recovery}

    A thread that dies holding a lock wedges every future operation that
    needs that node — the failure mode the paper's lock-freedom argument
    is about. With [create ~lease], a spinner that observes the {e same}
    witness record locked for longer than the lease presumes the holder
    dead and revokes the lock: it CASes the witness to a fresh locked
    record of its own, restores the mound property below the node (the
    holder may have died mid-protocol), and then competes for the lock
    normally. Revocation is safe against slow-but-alive holders because
    every write a holder makes to a held node is a CAS against its
    witness — once revoked, those CASes fail and the holder abandons the
    node (an unpublished insert retries; a torn moundify swap is repaired
    by the revoker's own moundify).

    Recovery restores availability and the heap property in bounded
    time. It does {e not} make the locking mound crash-tolerant: a holder
    that dies at certain interior moundify points can leave an element
    duplicated or dropped — inherent to blocking designs, and exactly the
    contrast with the lock-free variant that the paper draws. The lease
    defaults to off, preserving the classic blocking behaviour. *)

module Make (R : Runtime.S) (Ord : Intf.ORDERED) = struct
  module T = Tree.Make (R)

  type elt = Ord.t

  type lnode = { list : elt list; locked : bool; seq : int }

  type t = {
    tree : lnode R.Atomic.t T.t;
    ops : Stats.Ops.t;
    lease : int;
        (** ns (virtual time under the simulator) a lock may be held
            before spinners may revoke it; 0 disables revocation *)
  }

  let vcompare = Intf.Value.compare Ord.compare

  let node_value n = match n.list with [] -> None | x :: _ -> Some x

  let create ?threshold ?init_depth ?(lease = 0) () =
    let make_slot () = R.Atomic.make { list = []; locked = false; seq = 0 } in
    {
      tree = T.create ?threshold ?init_depth make_slot;
      ops = Stats.Ops.create ();
      lease;
    }

  (** Spin / retry counters since creation. Exact and deterministic
      under the simulator; racy (diagnostic) on real domains. *)
  let ops t = t.ops

  let depth t = T.depth t.tree

  let expired ~deadline =
    deadline <> Intf.no_deadline && R.monotonic_ns () > deadline

  let bump_timeout t = t.ops.deadline_timeouts <- t.ops.deadline_timeouts + 1

  (* Every write to a held node goes through the witness the holder
     installed. Without a lease nobody can revoke us, so the plain store
     of the classic algorithm is kept; with a lease the write must CAS
     against the witness — failure means a recoverer revoked the lock and
     the node is no longer ours to touch. *)
  let restamp t slot ~witness fresh =
    if t.lease = 0 then begin
      R.Atomic.set slot fresh;
      true
    end
    else R.Atomic.compare_and_set slot witness fresh

  let unlock t slot ~witness list =
    restamp t slot ~witness { list; locked = false; seq = witness.seq + 1 }

  (* Consecutive failed acquisitions of one [set_lock] call before the
     wait is counted as a livelock near miss (sustained non-progress that
     eventually resolved — the dynamic shadow of the liveness checker). *)
  let near_miss_spins = 64

  (* Spin until the node is acquired, honouring [deadline] and — when a
     lease is set — revoking holders that exceed it. Returns the locked
     record we installed (the witness), or [None] on deadline expiry.
     [node]/[level] locate the slot in the tree so an expired-lease
     takeover can restore the mound property below it (paper F1–F4, plus
     recovery). *)
  let rec set_lock_until t slot ~node ~level ~deadline =
    (* [seen]/[since]: the first observation of the current holder's
       witness and our clock at that observation — the lease timer. A
       different record restarts the timer (a new tenure began). *)
    let rec spin tries seen since =
      let n = R.Atomic.get slot in
      if not n.locked then begin
        let mine = { list = n.list; locked = true; seq = n.seq + 1 } in
        if R.Atomic.compare_and_set slot n mine then Some mine
        else miss tries seen since
      end
      else if t.lease > 0 then begin
        let now = R.monotonic_ns () in
        match seen with
        | Some w when w == n ->
            if now - since > t.lease then begin
              (* Holder exceeded its lease: presume it dead and take the
                 lock directly from its witness. The CAS is the whole
                 revocation — from here on the old holder's witnessed
                 writes all fail. *)
              let mine = { list = n.list; locked = true; seq = n.seq + 1 } in
              if R.Atomic.compare_and_set slot n mine then begin
                t.ops.lock_recoveries <- t.ops.lock_recoveries + 1;
                (* The holder may have died mid-protocol; restore the
                   mound property below this node (which also releases
                   it), then compete for the lock normally. *)
                moundify t node ~level ~witness:mine;
                spin tries None 0
              end
              else miss tries seen since
            end
            else miss tries seen since
        | _ -> miss tries (Some n) now
      end
      else miss tries seen since
    and miss tries seen since =
      t.ops.lock_spins <- t.ops.lock_spins + 1;
      if tries = near_miss_spins then
        t.ops.livelock_near_misses <- t.ops.livelock_near_misses + 1;
      if expired ~deadline then None
      else begin
        R.cpu_relax ();
        spin (tries + 1) seen since
      end
    in
    spin 0 None 0

  and set_lock t slot ~node ~level =
    match set_lock_until t slot ~node ~level ~deadline:Intf.no_deadline with
    | Some w -> w
    | None -> assert false (* no deadline: the spin never gives up *)

  (* Precondition: the caller holds the lock on [n] via [witness], and
     [level] is ⌊log₂ n⌋ — the traversal always knows it (the root is
     level 0, children one deeper), so slots are fetched with [get_at]
     instead of recomputing the level per access. Restores the mound
     property below [n] and releases every lock it takes, including
     [n]'s (paper F14–F35). A witnessed write that fails means the lease
     recoverer revoked us; the node is abandoned and the revoker's own
     moundify repairs it. *)
  and moundify t n ~level ~witness =
    let slot = T.get_at t.tree ~level n in
    let nlist = witness.list in
    let d = T.depth t.tree in
    if T.is_leaf n ~depth:d then ignore (unlock t slot ~witness nlist)
    else begin
      let lslot = T.get_at t.tree ~level:(level + 1) (2 * n)
      and rslot = T.get_at t.tree ~level:(level + 1) ((2 * n) + 1) in
      let wl = set_lock t lslot ~node:(2 * n) ~level:(level + 1) in
      let wr = set_lock t rslot ~node:((2 * n) + 1) ~level:(level + 1) in
      let vn = match nlist with [] -> None | x :: _ -> Some x
      and vl = node_value wl
      and vr = node_value wr in
      if vcompare vl vr <= 0 && vcompare vl vn < 0 then begin
        (* Swap lists with the left child, which keeps our old list and
           stays locked while we recurse into it — hand-over-hand. The
           child is re-stamped first so that if our own lock on [n] has
           been revoked, the swap aborts with both lists intact. *)
        let wl' = { list = nlist; locked = true; seq = wl.seq + 1 } in
        if restamp t lslot ~witness:wl wl' then begin
          ignore (unlock t rslot ~witness:wr wr.list);
          ignore (unlock t slot ~witness wl.list);
          moundify t (2 * n) ~level:(level + 1) ~witness:wl'
        end
        else begin
          ignore (unlock t rslot ~witness:wr wr.list);
          ignore (unlock t slot ~witness nlist)
        end
      end
      else if vcompare vr vl < 0 && vcompare vr vn < 0 then begin
        let wr' = { list = nlist; locked = true; seq = wr.seq + 1 } in
        if restamp t rslot ~witness:wr wr' then begin
          ignore (unlock t lslot ~witness:wl wl.list);
          ignore (unlock t slot ~witness wr.list);
          moundify t ((2 * n) + 1) ~level:(level + 1) ~witness:wr'
        end
        else begin
          ignore (unlock t lslot ~witness:wl wl.list);
          ignore (unlock t slot ~witness nlist)
        end
      end
      else begin
        ignore (unlock t slot ~witness nlist);
        ignore (unlock t lslot ~witness:wl wl.list);
        ignore (unlock t rslot ~witness:wr wr.list)
      end
    end

  exception Gave_up

  (* The one take (F9–F12, and §V's extract-many and probabilistic
     extract): lock node [n], remove its head — with [~all] its whole
     list — keep it locked, and let moundify restore the property below
     it and release it. Returns the list as it was before the take, [[]]
     for an empty node. [Gave_up] is raised, with nothing removed, when
     [deadline] passes while acquiring or after a lease revoked us. *)
  let rec take t n ~level ~all ~deadline =
    let slot = T.get_at t.tree ~level n in
    match set_lock_until t slot ~node:n ~level ~deadline with
    | None -> raise_notrace Gave_up
    | Some w -> (
        match w.list with
        | [] ->
            ignore (unlock t slot ~witness:w []);
            []
        | _ :: tl ->
            let left = if all then [] else tl in
            let w' = { list = left; locked = true; seq = w.seq + 1 } in
            if restamp t slot ~witness:w w' then begin
              moundify t n ~level ~witness:w';
              w.list
            end
            else begin
              (* revoked between acquisition and behead: nothing removed *)
              t.ops.extract_retries <- t.ops.extract_retries + 1;
              if expired ~deadline then raise_notrace Gave_up
              else take t n ~level ~all ~deadline
            end)

  let extract_min_until t ~deadline =
    match take t 1 ~level:0 ~all:false ~deadline with
    | [] -> Intf.Ok None
    | hd :: _ -> Intf.Ok (Some hd)
    | exception Gave_up ->
        bump_timeout t;
        Intf.Timeout

  let extract_min t =
    match take t 1 ~level:0 ~all:false ~deadline:Intf.no_deadline with
    | [] -> None
    | hd :: _ -> Some hd

  (** Take the root's entire list (§V). *)
  let extract_many t = take t 1 ~level:0 ~all:true ~deadline:Intf.no_deadline

  (** Probabilistic extract-min (§V): take the head of a random node
      within the first [max_level+1] levels, which is the minimum of the
      sub-mound rooted there. Falls back to the exact operation on an
      empty probe. *)
  let extract_approx ?(max_level = 2) t =
    let lvl = min max_level (T.depth t.tree - 1) in
    let n = 1 + R.rand_int ((1 lsl (lvl + 1)) - 1) in
    match
      take t n ~level:(T.level_of n) ~all:false ~deadline:Intf.no_deadline
    with
    | [] -> extract_min t
    | hd :: _ -> Some hd

  (* The probe predicate for [v]: may it be pushed onto node [i]? Built
     once per call and reused across retries. *)
  let fits t v i =
    Intf.Value.ge_elt Ord.compare (node_value (R.Atomic.get (T.get t.tree i))) v

  (* The one insert publication (F41–F46, and §V's batch splice): lock
     the insert point [ge] selects — its parent first, matching
     moundify's order — check [hd] still fits there, and push [hd] with
     the longest prefix of the sorted [rest] that the node's value
     bounds. [Ok left] returns the part of [rest] not placed; [Rejected]
     means the check failed or a lease revoked us, and [Timeout] that
     [deadline] passed while acquiring — either way nothing was
     placed. *)
  let publish t hd rest ~ge ~deadline =
    let c, clvl = T.find_insert_point_lv t.tree ~ge in
    let cslot = T.get_at t.tree ~level:clvl c in
    if c = 1 then
      match set_lock_until t cslot ~node:1 ~level:0 ~deadline with
      | None -> Intf.Timeout
      | Some w ->
          let limit = node_value w in
          if Intf.Value.ge_elt Ord.compare limit hd then begin
            let list, left =
              match rest with
              | [] -> (hd :: w.list, [])
              | _ ->
                  let prefix, left =
                    Intf.Value.split_prefix Ord.compare limit rest
                  in
                  (hd :: (prefix @ w.list), left)
            in
            if unlock t cslot ~witness:w list then Intf.Ok left
            else Intf.Rejected (* revoked before publication *)
          end
          else begin
            ignore (unlock t cslot ~witness:w w.list);
            Intf.Rejected
          end
    else begin
      (* Parent before child, matching moundify's order (F45–F46). *)
      let pslot = T.get_at t.tree ~level:(clvl - 1) (c / 2) in
      match set_lock_until t pslot ~node:(c / 2) ~level:(clvl - 1) ~deadline with
      | None -> Intf.Timeout
      | Some wp -> (
          match set_lock_until t cslot ~node:c ~level:clvl ~deadline with
          | None ->
              ignore (unlock t pslot ~witness:wp wp.list);
              Intf.Timeout
          | Some wc ->
              let limit = node_value wc in
              if
                Intf.Value.ge_elt Ord.compare limit hd
                && Intf.Value.le_elt Ord.compare (node_value wp) hd
              then begin
                let list, left =
                  match rest with
                  | [] -> (hd :: wc.list, [])
                  | _ ->
                      let prefix, left =
                        Intf.Value.split_prefix Ord.compare limit rest
                      in
                      (hd :: (prefix @ wc.list), left)
                in
                let published = unlock t cslot ~witness:wc list in
                ignore (unlock t pslot ~witness:wp wp.list);
                if published then Intf.Ok left else Intf.Rejected
              end
              else begin
                ignore (unlock t pslot ~witness:wp wp.list);
                ignore (unlock t cslot ~witness:wc wc.list);
                Intf.Rejected
              end)
    end

  (* The deadline bounds both the lock waits and the revalidation
     retries; [Timeout] guarantees [v] was not published. *)
  let rec insert_loop t v ~ge ~deadline =
    match publish t v [] ~ge ~deadline with
    | Intf.Ok _ -> Intf.Ok ()
    | Timeout ->
        bump_timeout t;
        Intf.Timeout
    | Rejected ->
        t.ops.insert_retries <- t.ops.insert_retries + 1;
        if expired ~deadline then begin
          bump_timeout t;
          Intf.Timeout
        end
        else insert_loop t v ~ge ~deadline

  let insert_until t ~deadline v = insert_loop t v ~ge:(fits t v) ~deadline

  let insert t v =
    match insert_until t ~deadline:Intf.no_deadline v with
    | Intf.Ok () -> ()
    | Timeout | Rejected -> assert false (* no deadline, no admission *)

  (** One publication attempt with a deadline that has already passed:
      probe once, make one acquisition attempt per lock, publish or
      report [false]. Never waits behind a held lock — the admission
      path the bounded front-end uses. *)
  let try_insert t v =
    match publish t v [] ~ge:(fits t v) ~deadline:Intf.past_deadline with
    | Intf.Ok _ -> true
    | Timeout | Rejected ->
        t.ops.rejected <- t.ops.rejected + 1;
        false

  let batch_tries = 4

  (** Insert a {e sorted} batch — the dual of [extract_many]. Each round
      publishes the current head with the longest prefix that fits its
      insert point under one lock pair, so probing and binary search are
      amortized over the whole run instead of paid per element. Under
      contention the head falls back to the element-wise [insert] and
      batching resumes with the remainder. *)
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
            match
              publish t hd rest ~ge:(fits t hd) ~deadline:Intf.no_deadline
            with
            | Intf.Ok left -> go left batch_tries
            | Timeout | Rejected -> go batch (tries - 1)
          end
    in
    go batch batch_tries

  let peek_min t =
    let slot = T.get_at t.tree ~level:0 1 in
    let w = set_lock t slot ~node:1 ~level:0 in
    ignore (unlock t slot ~witness:w w.list);
    node_value w

  let is_empty t = peek_min t = None

  (* ----- quiescent introspection ----- *)

  let fold_nodes t f acc =
    T.fold t.tree (fun acc i slot -> f acc i (R.Atomic.get slot).list) acc

  let size t = fold_nodes t (fun acc _ l -> acc + List.length l) 0

  (** Quiescent check: sorted lists and the mound property at every
      parent/child pair (no node should be locked at a quiescent point). *)
  let check t =
    fold_nodes t
      (fun ok i l ->
        ok && Intf.Value.list_sorted Ord.compare l
        && (not (R.Atomic.get (T.get t.tree i)).locked)
        &&
        if i = 1 then true
        else
          Intf.Value.le Ord.compare
            (node_value (R.Atomic.get (T.get t.tree (i / 2))))
            (match l with [] -> None | x :: _ -> Some x))
      true
end
