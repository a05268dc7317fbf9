(* The benchmark's own test: every correctness oracle must pass on the
   real structures and trip on a deliberately faulty queue wrapper, an
   untraced phase must record no spans, and windows must be selected by
   steal as [Steal.least_stolen] says. Runs at smoke size in a few
   seconds:

     dune exec perfbench/selftest.exe *)

open Perfbench

module Lf = Queues.Lf

(* Silently loses one insert in [every]. *)
module Drop_insert (Q : Workload.QUEUE) = struct
  include Q

  let name = Q.name ^ "+drop-insert"
  let every = 50
  let n = Atomic.make 0
  let dropped () = Atomic.fetch_and_add n 1 mod every = every - 1
  let insert q v = if not (dropped ()) then Q.insert q v

  let insert_until q ~deadline v =
    if dropped () then Mound.Intf.Ok () else Q.insert_until q ~deadline v
end

(* Every [every]-th extraction reports a key larger than the one it
   removed: a non-minimum that was never inserted. *)
module Wrong_key (Q : Workload.QUEUE) = struct
  include Q

  let name = Q.name ^ "+wrong-key"
  let every = 50
  let n = Atomic.make 0
  let bump k =
    if Atomic.fetch_and_add n 1 mod every = every - 1 then k + (1 lsl 21)
    else k
  let extract_min q = Option.map bump (Q.extract_min q)

  let extract_min_until q ~deadline =
    match Q.extract_min_until q ~deadline with
    | Mound.Intf.Ok (Some k) -> Mound.Intf.Ok (Some (bump k))
    | r -> r
end

let failures = ref 0

let expect what ~trips (p : Workload.phase) =
  let ok = if trips then p.errors <> [] else p.errors = [] in
  Printf.printf "%-4s %-40s %s\n" (if ok then "ok" else "FAIL") what
    (match p.errors with [] -> "(no oracle error)" | e :: _ -> e);
  if not ok then incr failures

let seconds = 0.2
let hold_inp = Workload.hold_input 1 ~size:(3 lsl 10)
let grid = Workload.sssp_state (Inputs.grid 1 ~side:32)
let oracle = Inputs.dijkstra grid.g

(* One episode of each workload, untraced unless [traced]. *)
let hold (module Q : Workload.QUEUE) =
  let module W = Workload.Make (Q) in
  let a = W.hold_acc ~traced:false ~target:seconds in
  W.hold a hold_inp;
  W.result a

(* One solve's result and the spans its domains' buffers hold. *)
let sssp_spans ~traced (module Q : Workload.QUEUE) =
  let module W = Workload.Make (Q) in
  let a = W.acc ~traced ~target:seconds ~windows:1 in
  W.sssp a grid oracle;
  ( W.result a,
    Array.fold_left (fun n (d : Workload.dom) -> n + d.spans.len) 0 a.doms )

let sssp q = fst (sssp_spans ~traced:false q)

let run (module Q : Workload.QUEUE) ~hold:h ~sssp:s =
  expect (Q.name ^ " hold") ~trips:h (hold (module Q));
  expect (Q.name ^ " sssp") ~trips:s (sssp (module Q))

let () =
  run (module Lf) ~hold:false ~sssp:false;
  run (module Drop_insert (Lf)) ~hold:true ~sssp:true;
  run (module Wrong_key (Lf)) ~hold:true ~sssp:true;
  (* a traced solve records a span per non-empty extract and per insert *)
  let _, u = sssp_spans ~traced:false (module Lf) in
  let p, t = sssp_spans ~traced:true (module Lf) in
  let ok = u = 0 && t > 0 && t = p.calls - p.empty in
  Printf.printf "%-4s %-40s untraced %d spans, traced %d\n"
    (if ok then "ok" else "FAIL") "span recording" u t;
  if not ok then incr failures;
  (* window selection: the least-stolen third, and every window when
     none was stolen *)
  let kept l = Steal.least_stolen (List.mapi (fun i s -> (i, s)) l) in
  let ok =
    kept [ 5; 0; 9; 1; 0; 7 ] = [ 1; 4 ]
    && kept [ 0; 0; 0; 0 ] = [ 0; 1; 2; 3 ]
    && kept [ 3 ] = [ 0 ]
    && Steal.ticks () >= 0
  in
  Printf.printf "%-4s %-40s\n" (if ok then "ok" else "FAIL") "steal selection";
  if not ok then incr failures;
  if !failures > 0 then begin
    Printf.printf "%d self-test failure(s)\n" !failures;
    exit 1
  end
