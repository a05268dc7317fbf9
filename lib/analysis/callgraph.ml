(** Cross-module call graph over {!Summary} facts.

    Functions from all analyzed files are indexed by their full module
    path ([Tree.Make.get_at]). A call resolves to its target by exact
    path match first; failing that, by suffix: the callee's recorded
    path may carry library-wrapper prefixes the definition site does not
    ([Runtime.Backoff.Make.exponential] resolves to the function
    [Backoff.Make.exponential]). Ambiguous suffixes prefer the longest
    definition path, then a definition in the calling file, and resolve
    to nothing otherwise — a missed edge under-approximates effects,
    which for every rule here means a possible false positive (waivable)
    and never a silent pass.

    Transitive effects are a fixpoint over the resolved edges, with one
    deliberate cut: an edge {e crossing files into a CAS substrate} — a
    file defining any of [cas]/[dcas]/[dcss]/[casn]/[compare_and_set] —
    contributes only the substrate's [performs_cas] fact, never its
    [helps] or [backs_off]. {!Mcas} helps internally on every operation
    (that is what makes it lock-free), but a client loop retrying a
    failed [M.cas] is spinning on {e real contention}, which the
    substrate's internal helping does nothing to relieve; without the
    cut every client of [Mcas] would count as helping and the
    helping-discipline rule could flag nothing. Within a substrate file
    its own loops keep their helping facts. *)

type t = {
  fns : Summary.fn array;
  by_path : (string, int list) Hashtbl.t;
  substrate_files : (string, unit) Hashtbl.t;
  edges : int list array;  (* resolved callee ids per function *)
  trans : Summary.effects array;
  reaches_self : bool array;
}

let join = String.concat "."

let rec is_suffix ~suffix l =
  let ls = List.length suffix and ll = List.length l in
  if ls > ll then false
  else if ls = ll then suffix = l
  else match l with [] -> false | _ :: tl -> is_suffix ~suffix tl

let fns t = t.fns

let fn t i = t.fns.(i)

let is_substrate_file t file = Hashtbl.mem t.substrate_files file

(* Resolve a call path to a function id: exact, then definition-path-
   is-suffix-of-call-path (library wrappers), longest match preferred,
   then same-file. *)
let resolve ?from_file t segs =
  match Hashtbl.find_opt t.by_path (join segs) with
  | Some [ i ] -> Some i
  | Some (i :: _ as ids) -> (
      match from_file with
      | Some f -> (
          match List.find_opt (fun j -> t.fns.(j).ffile = f) ids with
          | Some j -> Some j
          | None -> Some i)
      | None -> Some i)
  | _ ->
      let candidates = ref [] in
      Array.iteri
        (fun i (f : Summary.fn) ->
          if is_suffix ~suffix:f.fpath segs then
            candidates := (List.length f.fpath, i) :: !candidates)
        t.fns;
      (match List.sort (fun (a, _) (b, _) -> compare b a) !candidates with
      | [] -> None
      | [ (_, i) ] -> Some i
      | (len, i) :: rest -> (
          let best = i :: List.filter_map
                            (fun (l, j) -> if l = len then Some j else None)
                            rest
          in
          match from_file with
          | Some f -> (
              match
                List.find_opt (fun j -> t.fns.(j).ffile = f) best
              with
              | Some j -> Some j
              | None -> if List.length best = 1 then Some i else None)
          | None -> if List.length best = 1 then Some i else None))

let trans_effects t i = t.trans.(i)

let self_reachable t i = t.reaches_self.(i)

(* Does following this edge cross files into a CAS substrate? *)
let cut_edge t ~from_file j =
  let g = t.fns.(j) in
  g.ffile <> from_file && Hashtbl.mem t.substrate_files g.ffile

let build (all : Summary.fn list) : t =
  let fns = Array.of_list all in
  let by_path = Hashtbl.create 64 in
  Array.iteri
    (fun i (f : Summary.fn) ->
      let k = join f.fpath in
      Hashtbl.replace by_path k
        (i :: (Hashtbl.find_opt by_path k |> Option.value ~default:[])))
    fns;
  let substrate_files = Hashtbl.create 8 in
  Array.iter
    (fun (f : Summary.fn) ->
      match List.rev f.fpath with
      | last :: _ when List.mem last Summary.cas_family ->
          Hashtbl.replace substrate_files f.ffile ()
      | _ -> ())
    fns;
  let t0 =
    {
      fns;
      by_path;
      substrate_files;
      edges = Array.make (Array.length fns) [];
      trans = Array.map (fun (f : Summary.fn) -> f.fdirect) fns;
      reaches_self = Array.make (Array.length fns) false;
    }
  in
  Array.iteri
    (fun i (f : Summary.fn) ->
      t0.edges.(i) <-
        List.filter_map
          (fun (c : Summary.call) ->
            resolve ~from_file:f.ffile t0 c.callee)
          f.fcalls
        |> List.sort_uniq compare)
    fns;
  (* effect fixpoint with the substrate cut *)
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i (f : Summary.fn) ->
        let cur = t0.trans.(i) in
        let next =
          List.fold_left
            (fun acc j ->
              let contrib =
                if cut_edge t0 ~from_file:f.ffile j then
                  {
                    Summary.no_effects with
                    performs_cas = t0.trans.(j).performs_cas;
                  }
                else t0.trans.(j)
              in
              Summary.union_effects acc contrib)
            cur t0.edges.(i)
        in
        if next <> cur then begin
          t0.trans.(i) <- next;
          changed := true
        end)
      fns
  done;
  (* self-reachability: is the function part of a call-graph cycle? *)
  let n = Array.length fns in
  for i = 0 to n - 1 do
    let seen = Array.make n false in
    let rec dfs j =
      List.exists
        (fun k ->
          k = i
          || (not seen.(k))
             && begin
                  seen.(k) <- true;
                  dfs k
                end)
        t0.edges.(j)
    in
    t0.reaches_self.(i) <- dfs i
  done;
  t0
