(** Relaxed MultiQueue front-end over sequential mounds.

    The committed benches show the single shared mound collapsing under
    concurrent [extract_min] — every thread fights over one root. The
    MultiQueue construction (Williams & Sanders, "Engineering
    MultiQueues") side-steps the bottleneck by relaxing the contract:
    [c·P] independent queues, inserts spread across them, and
    [extract_min] popping the smaller-topped of {e two} randomly sampled
    queues. The returned element is the minimum of a sampled queue, not
    of the whole structure; how far from the global minimum it ranks is
    a measured quantity ([Harness.Rank_exp]), not a promise.

    Design notes:

    - Each inner queue is a {!Seq_mound} behind a single-word try-lock.
      Operations hold exactly one lock at a time, so there is no lock
      ordering to get wrong and a crashed holder stalls only its own
      queue.
    - Each queue's top key is cached in a dedicated atomic, republished
      before every unlock. Two-choice sampling reads only these cached
      tops; whenever a lock is observed free the cached top is exact.
    - Stickiness: a domain re-uses its last insert queue (and its last
      delete pair) for [stickiness] consecutive operations before
      re-rolling, amortizing cache traffic; [insert_many] splices a whole
      sorted batch into the one sticky queue.
    - A global element counter makes emptiness exact: [extract_min]
      returns [None] only after a full scan finds nothing {e and} the
      counter reads zero. Linearizing inserts at their increment and
      extractions at their decrement (both inside the owning critical
      section) makes the counter equal the abstract size at every
      instant, so a zero read is a sound linearization point for
      [None] — emptiness is the one thing this structure does {e not}
      relax.
    - Retry paths (lock failover, the empty/busy rescan) rotate
      deterministically and draw no randomness; the thread-local PRNG is
      consumed only when a sticky assignment expires. Liveness
      certification needs revisitable states, and a PRNG draw inside a
      retry loop would make every spin look like fresh progress. *)

module Make (R : Runtime.S) (Ord : Intf.ORDERED) = struct
  module Q = Seq_mound.Make (Ord)

  type elt = Ord.t

  (* Same line-spacing discipline as [Tree]: 64-byte lines, one word of
     block header. *)
  let pad_words = 7

  (* One inner queue. The try-lock word and the cached-top word are the
     two contended atomics; live pad blocks keep them (and the cold
     mound pointer) off each other's cache lines. *)
  type cell = {
    lock : bool R.Atomic.t;
    pad_lock : int array;
    top : elt option R.Atomic.t;  (* exact whenever [lock] is free *)
    pad_top : int array;
    q : Q.t;
  }

  (* Sticky-choice state is per-domain heuristic data reached through
     [self () mod slot_count]: a hash collision (or a torn read after
     one) only changes which queue a domain prefers next, never what
     the structure contains; racy by contract, like [Stats.Ops]. *)
  type slot = {
    (* lint: allow — one domain's private counters: fields sharing a
       cache line here is locality, not false sharing *)
    mutable ins_q : int;  (* sticky insert queue *)
    mutable ins_left : int;  (* inserts before re-rolling [ins_q] *)
    mutable del_a : int;  (* sticky delete pair *)
    mutable del_b : int;
    mutable del_left : int;
    pad_slot : int array;  (* keep neighbouring slots off one line *)
  }

  type t = {
    cells : cell array;
    slots : slot array;
    size : int R.Atomic.t;  (* exact element count; see emptiness note *)
    stickiness : int;
    ops : Stats.Ops.t;
  }

  let vcompare = Intf.Value.compare Ord.compare

  let slot_count = 64

  (* Mirrors [Lock_mound]: spin stretches beyond this are counted as
     livelock near misses. *)
  let near_miss_spins = 64

  let create ?(c = 2) ?(stickiness = 8) ?threshold ?init_depth ?(seed = 1L)
      ?queues ~domains () =
    if domains < 1 then invalid_arg "Mound.Multiqueue.create: bad domains";
    if c < 1 then invalid_arg "Mound.Multiqueue.create: bad c";
    if stickiness < 1 then
      invalid_arg "Mound.Multiqueue.create: bad stickiness";
    let nq = match queues with Some n -> n | None -> c * domains in
    if nq < 1 then invalid_arg "Mound.Multiqueue.create: bad queue count";
    (* derive inner seeds before [Array.init]: its application order is
       unspecified, and the per-queue seeds must not depend on it *)
    let sm = Prng.Splitmix64.create seed in
    let seeds = Array.make nq 0L in
    for i = 0 to nq - 1 do
      seeds.(i) <- Prng.Splitmix64.next sm
    done;
    let cells =
      Array.init nq (fun i ->
          {
            lock = R.Atomic.make false;
            pad_lock = Array.make pad_words 0;
            top = R.Atomic.make None;
            pad_top = Array.make pad_words 0;
            q = Q.create ?threshold ?init_depth ~seed:seeds.(i) ();
          })
    in
    let slots =
      Array.init slot_count (fun _ ->
          {
            ins_q = 0;
            ins_left = 0;
            del_a = 0;
            del_b = 0;
            del_left = 0;
            pad_slot = Array.make pad_words 0;
          })
    in
    {
      cells;
      slots;
      size = R.Atomic.make 0;
      stickiness;
      ops = Stats.Ops.create ();
    }

  let ops t = t.ops

  let queue_count t = Array.length t.cells

  let slot_for t = t.slots.(R.self () mod slot_count)

  let expired ~deadline =
    deadline <> Intf.no_deadline && R.monotonic_ns () > deadline

  (* Republish the cached top, then release. This order is what makes
     [top] exact under a free lock: any thread that later observes the
     lock free also observes a top written after our last mutation. *)
  let unlock cell =
    R.Atomic.set cell.top (Q.peek_min cell.q);
    R.Atomic.set cell.lock false

  (* --- sticky choice ------------------------------------------------ *)

  let sticky_ins t slot =
    if slot.ins_left <= 0 then begin
      slot.ins_q <- R.rand_int (Array.length t.cells);
      slot.ins_left <- t.stickiness
    end;
    slot.ins_left <- slot.ins_left - 1;
    slot.ins_q

  (* Refresh the sticky delete pair when due and return the member with
     the smaller cached top ([None] is +∞): two-choice sampling. *)
  let sticky_del t slot =
    if slot.del_left <= 0 then begin
      let nq = Array.length t.cells in
      slot.del_a <- R.rand_int nq;
      slot.del_b <- R.rand_int nq;
      slot.del_left <- t.stickiness
    end;
    slot.del_left <- slot.del_left - 1;
    let a = slot.del_a and b = slot.del_b in
    if vcompare (R.Atomic.get t.cells.(a).top) (R.Atomic.get t.cells.(b).top)
       <= 0
    then a
    else b

  (* --- insert ------------------------------------------------------- *)

  (* Acquire some queue's lock, preferring [i]: one CAS on the sticky
     queue, then a deterministic rotation over the others (no PRNG in
     the retry path). Returns the acquired index, or [None] on deadline
     expiry. The deadline is first checked after the second probe, so
     even an already-passed deadline tries the sticky queue and its
     neighbour. An unbounded acquire always terminates as long as some
     holder keeps releasing: every rotation retries all [nq] locks. *)
  let rec acquire t i tries ~deadline =
    if R.Atomic.compare_and_set t.cells.(i).lock false true then Some i
    else begin
      t.ops.lock_spins <- t.ops.lock_spins + 1;
      if tries = near_miss_spins then
        t.ops.livelock_near_misses <- t.ops.livelock_near_misses + 1;
      if tries > 0 && expired ~deadline then None
      else begin
        let nq = Array.length t.cells in
        if (tries + 1) mod nq = 0 then R.cpu_relax ();
        acquire t ((i + 1) mod nq) (tries + 1) ~deadline
      end
    end

  (* The one insert publication: lock the sticky queue (failing over
     along the rotation) and push [hd] with the sorted [rest] — a whole
     inner mound bounds nothing, so the batch always fits and
     [Q.insert_many] splices it. [false] means [deadline] passed before
     any lock was won, with nothing placed. *)
  let publish t hd rest ~deadline =
    let slot = slot_for t in
    let start = sticky_ins t slot in
    match acquire t start 0 ~deadline with
    | None -> false
    | Some i ->
        if i <> start then begin
          (* failed over: stick to the queue we actually acquired *)
          slot.ins_q <- i;
          t.ops.insert_retries <- t.ops.insert_retries + 1
        end;
        let cell = t.cells.(i) in
        (match rest with
        | [] -> Q.insert cell.q hd
        | _ -> Q.insert_many cell.q (hd :: rest));
        ignore (R.Atomic.fetch_and_add t.size (1 + List.length rest));
        unlock cell;
        true

  let insert_until t ~deadline v =
    if publish t v [] ~deadline then Intf.Ok ()
    else begin
      t.ops.deadline_timeouts <- t.ops.deadline_timeouts + 1;
      Intf.Timeout
    end

  let insert t v = ignore (publish t v [] ~deadline:Intf.no_deadline)

  (* One publication with a deadline that has already passed: the
     sticky queue and its neighbour are each probed once. *)
  let try_insert t v =
    publish t v [] ~deadline:Intf.past_deadline
    || begin
         t.ops.rejected <- t.ops.rejected + 1;
         false
       end

  (** Insert a {e sorted} batch into the sticky queue in one critical
      section, so [Seq_mound.insert_many]'s prefix splicing amortizes
      probing over the whole batch. *)
  let insert_many t batch =
    match batch with
    | [] -> ()
    | hd :: rest -> ignore (publish t hd rest ~deadline:Intf.no_deadline)

  (* --- extract ------------------------------------------------------ *)

  (* The one take: one try-lock probe of queue [i] that removes its
     minimum — with [~all] its whole root list, with [?max_level] the
     inner mound's probabilistic pick — and returns what it removed.
     [[]] covers both a busy lock and an empty queue: either way the
     caller moves on, and global emptiness is decided by the counter,
     not by this probe. The unlocked-and-top-[None] shortcut can race an
     in-flight publish and miss a just-filled queue; the counter-guarded
     rescans re-examine it. *)
  let take_at ?max_level t i ~all =
    let cell = t.cells.(i) in
    if R.Atomic.get cell.top = None && not (R.Atomic.get cell.lock) then []
    else if not (R.Atomic.compare_and_set cell.lock false true) then begin
      t.ops.lock_spins <- t.ops.lock_spins + 1;
      []
    end
    else begin
      let taken =
        if all then Q.extract_many cell.q
        else
          Option.to_list
            (match max_level with
            | None -> Q.extract_min cell.q
            | Some _ -> Q.extract_approx ?max_level cell.q)
      in
      (match taken with
      | [] -> ()
      | l -> ignore (R.Atomic.fetch_and_add t.size (-List.length l)));
      unlock cell;
      taken
    end

  (* Take from the first choice of the sticky delete pair, then from the
     other member when the first yields nothing. *)
  let take_pair ?max_level t slot first ~all =
    match take_at ?max_level t first ~all with
    | [] ->
        let second = if first = slot.del_a then slot.del_b else slot.del_a in
        if second <> first then take_at ?max_level t second ~all else []
    | taken -> taken

  (* Deterministic rotation over every queue, restarted while the size
     counter says elements remain. Terminates with [Ok None] only on a
     zero counter read — the sound emptiness point — and with [Timeout]
     once the deadline passes. No randomness is drawn here. *)
  let rec scan t i left rounds ~deadline =
    if left = 0 then begin
      if R.Atomic.get t.size = 0 then Intf.Ok None
      else if expired ~deadline then begin
        t.ops.deadline_timeouts <- t.ops.deadline_timeouts + 1;
        Intf.Timeout
      end
      else begin
        t.ops.extract_retries <- t.ops.extract_retries + 1;
        if rounds = near_miss_spins then
          t.ops.livelock_near_misses <- t.ops.livelock_near_misses + 1;
        R.cpu_relax ();
        scan t i (Array.length t.cells) (rounds + 1) ~deadline
      end
    end
    else
      match take_at t i ~all:false with
      | v :: _ -> Intf.Ok (Some v)
      | [] ->
          scan t ((i + 1) mod Array.length t.cells) (left - 1) rounds ~deadline

  let extract_min_until t ~deadline =
    let slot = slot_for t in
    let first = sticky_del t slot in
    match take_pair t slot first ~all:false with
    | v :: _ -> Intf.Ok (Some v)
    | [] ->
        (* both samples empty or busy: re-roll on the next op, and
           decide emptiness via the full counter-guarded rotation *)
        slot.del_left <- 0;
        let nq = Array.length t.cells in
        scan t ((first + 1) mod nq) nq 0 ~deadline

  let extract_min t =
    match extract_min_until t ~deadline:Intf.no_deadline with
    | Intf.Ok r -> r
    | Timeout | Rejected -> assert false (* no deadline: scan never gives up *)

  (* lint: allow — [extract_many] has no deadline variant in the MOUND
     signature (matching the other mound variants); the wait resolves as
     soon as any lock holder releases, and a zero counter read exits. *)
  let rec take_scan t i left =
    if left = 0 then begin
      if R.Atomic.get t.size = 0 then []
      else begin
        t.ops.extract_retries <- t.ops.extract_retries + 1;
        R.cpu_relax ();
        take_scan t i (Array.length t.cells)
      end
    end
    else
      match take_at t i ~all:true with
      | [] -> take_scan t ((i + 1) mod Array.length t.cells) (left - 1)
      | taken -> taken

  (* Take one queue's whole root list: the relaxed analogue of the
     paper's extract-many (its head is that queue's minimum, not
     necessarily the global one). Same two-choice + counter-guarded
     rotation as [extract_min], so an empty result means an observed
     empty structure; the rotation is [take_scan], which has no
     deadline to honour. *)
  let extract_many t =
    let slot = slot_for t in
    let first = sticky_del t slot in
    match take_pair t slot first ~all:true with
    | [] ->
        slot.del_left <- 0;
        let nq = Array.length t.cells in
        take_scan t ((first + 1) mod nq) nq
    | taken -> taken

  (* Doubly approximate: sample the sticky pair, then let the inner
     mound's probabilistic extract pick a near-minimum within it. Busy
     or empty samples fall back to the exact (still rank-relaxed)
     [extract_min]. *)
  let extract_approx ?(max_level = 2) t =
    let slot = slot_for t in
    match take_pair ~max_level t slot (sticky_del t slot) ~all:false with
    | v :: _ -> Some v
    | [] -> extract_min t

  (* --- observers ---------------------------------------------------- *)

  let peek_min t =
    Array.fold_left
      (fun acc cell ->
        let v = R.Atomic.get cell.top in
        if vcompare v acc < 0 then v else acc)
      None t.cells

  let is_empty t = R.Atomic.get t.size = 0

  let size t = R.Atomic.get t.size

  let depth t =
    Array.fold_left (fun acc cell -> max acc (Q.depth cell.q)) 0 t.cells

  (* Node indices repeat across the inner mounds (each is its own
     1-based tree); [Stats.compute] aggregates per level, which stays
     meaningful as a per-level aggregate across all queues. *)
  let fold_nodes t f acc =
    Array.fold_left (fun acc cell -> Q.fold_nodes cell.q f acc) acc t.cells

  (* Quiescent invariants: every lock free, every inner mound valid,
     every cached top exact, and the global counter equal to the sum of
     inner sizes. *)
  let check t =
    let ok = ref true in
    let total = ref 0 in
    Array.iter
      (fun cell ->
        ok :=
          !ok
          && (not (R.Atomic.get cell.lock))
          && Q.check cell.q
          && vcompare (R.Atomic.get cell.top) (Q.peek_min cell.q) = 0;
        total := !total + Q.size cell.q)
      t.cells;
    !ok && !total = R.Atomic.get t.size
end
