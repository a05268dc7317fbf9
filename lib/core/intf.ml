(** Shared signatures and value-ordering helpers for the mound library.

    A mound node's logical value is the head of its sorted list, or +∞
    when the list is empty (the paper's ⊤). We represent that as
    ['elt option] with [None] meaning +∞, so no sentinel element is ever
    required of the user. *)

(** Totally ordered elements storable in a priority queue. *)
module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

(** Result of a deadline- or admission-aware operation. [Timeout] means
    the operation observed its deadline expire before it could complete
    and gave up without taking effect; [Rejected] means an admission
    policy (capacity watermark, try-lock miss) refused it outright.
    Either way the queue is unchanged as far as the caller's element is
    concerned. *)
type 'a outcome = Ok of 'a | Timeout | Rejected

(** Deadlines are absolute [Runtime.S.monotonic_ns] stamps; this sentinel
    means "no deadline", and retry loops short-circuit on it so the
    unbounded paths never read the clock. *)
let no_deadline = max_int

(** A deadline that has always passed. By the "first attempt always
    runs" rule an operation given it makes exactly one attempt and never
    retries: [try_insert] is an insert with this deadline. *)
let past_deadline = min_int

(** The operations every priority queue in this repository provides. *)
module type CORE = sig
  type elt
  type t

  val insert : t -> elt -> unit

  val extract_min : t -> elt option
  (** [extract_min t] removes and returns a minimum element, or [None] if
      the queue was empty at the linearization point. *)

  val is_empty : t -> bool
end

(** The full interface shared by the three mound variants (sequential,
    lock-free, locking). [Mound.Seq], [Mound.Lf] and [Mound.Lock] are
    checked against it in [mound.ml], so the variants cannot drift
    apart. Creation is variant-specific (seeds, thresholds) and therefore
    not part of this signature. *)
module type MOUND = sig
  type elt
  type t

  val insert : t -> elt -> unit
  (** [insert t v] adds [v]. O(log log N) expected: probe random leaves,
      binary-search one ancestor chain, one atomic write. *)

  val extract_min : t -> elt option
  (** [extract_min t] removes and returns a minimum element, or [None] on
      an empty mound. O(log N): behead the root list, then restore the
      mound property downward. *)

  val peek_min : t -> elt option
  (** [peek_min t] reads the minimum without removing it. *)

  val extract_many : t -> elt list
  (** [extract_many t] atomically takes the root's whole sorted list
      (paper §V). Its head is the global minimum; later elements are small
      but not necessarily the next minima. Empty list on an empty mound. *)

  val insert_many : t -> elt list -> unit
  (** [insert_many t batch] inserts a {e sorted} batch, splicing it into
      a single node in one atomic step when the randomized probing finds
      a node that accommodates the whole batch, and falling back to
      element-wise insertion otherwise. The dual of {!extract_many};
      behaviour is unspecified if [batch] is not sorted. *)

  val try_insert : t -> elt -> bool
  (** [try_insert t v] is one insertion attempt whose deadline has
      already passed ({!past_deadline}); it returns whether it took
      effect: no retrying, no waiting on a held lock. The overload
      front-end ([Bounded]) uses it to keep admission cheap when the
      structure is contended. *)

  val insert_until : t -> deadline:int -> elt -> unit outcome
  (** [insert_until t ~deadline v] inserts [v], giving up with [Timeout]
      once [Runtime.S.monotonic_ns] passes the absolute [deadline].
      [deadline = no_deadline] never times out. A [Timeout] guarantees [v]
      was not published. *)

  val extract_min_until : t -> deadline:int -> (elt option) outcome
  (** Deadline-checking {!extract_min}: [Ok None] is an observed empty
      mound, [Timeout] means the retry/lock loop outlived [deadline]
      without extracting (nothing was removed). *)

  val extract_approx : ?max_level:int -> t -> elt option
  (** [extract_approx t] extracts the minimum of a {e random sub-mound}
      rooted within the first [max_level+1] levels (default 2) — probably
      close to the global minimum, at much lower contention (paper §V).
      Falls back to [extract_min] when the probed node is empty. *)

  val is_empty : t -> bool

  val depth : t -> int
  (** Number of tree levels currently in use. *)

  val size : t -> int
  (** Total stored elements. O(N); meant for quiescent points. *)

  val fold_nodes : t -> ('acc -> int -> elt list -> 'acc) -> 'acc -> 'acc
  (** Quiescent fold over (node index, node list) in index order; feeds
      {!Stats.compute}. *)

  val check : t -> bool
  (** Quiescent invariant check: sorted per-node lists plus the mound
      property (and, for the locking variant, that no node is locked). *)
end

(** Comparison of node values, where [None] is +∞. *)
module Value = struct
  let compare cmp a b =
    match (a, b) with
    | None, None -> 0
    | None, Some _ -> 1
    | Some _, None -> -1
    | Some x, Some y -> cmp x y

  let le cmp a b = compare cmp a b <= 0
  let lt cmp a b = compare cmp a b < 0

  (** [ge_elt cmp node v]: does the node value dominate element [v]
      (i.e. [val(node) >= v], so [v] may be pushed onto the node)? *)
  let ge_elt cmp node v =
    match node with None -> true | Some x -> cmp x v >= 0

  (** [le_elt cmp node v]: [val(node) <= v], the parent-side insertion
      condition. An empty node (+∞) never satisfies it. *)
  let le_elt cmp node v =
    match node with None -> false | Some x -> cmp x v <= 0

  (** [split_prefix cmp limit batch]: the longest prefix of the sorted
      [batch] whose elements fit under the node value [limit] ([None] is
      +∞, keeping the whole batch), paired with the remainder. *)
  let split_prefix cmp limit batch =
    let rec go acc = function
      | x :: rest when ge_elt cmp limit x -> go (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    go [] batch

  let rec list_sorted cmp = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> cmp a b <= 0 && list_sorted cmp rest
end

(** Default number of random leaves probed before the tree grows a level;
    the paper's THRESHOLD, set to its value of 8 (§VI-A). *)
let default_threshold = 8
