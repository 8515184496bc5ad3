(* The parallel layer: the race primitive, racer budgets, and solver
   racing — verdict agreement across thread counts, with every Unsat
   passing the trusted certificate checker, and the losers of a race never
   contributing a verdict. *)

open Relational
open Helpers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Race                                                                *)
(* ------------------------------------------------------------------ *)

let test_race_sequential_order () =
  let tasks = Array.init 5 (fun i -> fun () -> i * 10) in
  let seen = ref [] in
  Parallel.Race.run ~threads:1 ~tasks ~consume:(fun e ->
      seen := (e.Parallel.Race.index, e.Parallel.Race.value) :: !seen);
  Alcotest.(check (list (pair int int)))
    "threads=1 delivers in array order"
    [ (0, 0); (1, 10); (2, 20); (3, 30); (4, 40) ]
    (List.rev !seen)

let test_race_all_consumed () =
  let tasks = Array.init 8 (fun i -> fun () -> i) in
  let seen = Array.make 8 false in
  Parallel.Race.run ~threads:4 ~tasks ~consume:(fun e ->
      check_int "value matches index" e.Parallel.Race.index e.Parallel.Race.value;
      seen.(e.Parallel.Race.index) <- true);
  check "every task consumed exactly once" true (Array.for_all Fun.id seen)

exception Shard_boom

let test_race_task_exception () =
  let tasks =
    [| (fun () -> 1); (fun () -> raise Shard_boom); (fun () -> 3) |]
  in
  let consumed = ref 0 in
  let raised =
    match Parallel.Race.run ~threads:2 ~tasks ~consume:(fun _ -> incr consumed) with
    | () -> false
    | exception Shard_boom -> true
  in
  check "task exception re-raised after the drain" true raised

(* ------------------------------------------------------------------ *)
(* Racer budgets                                                       *)
(* ------------------------------------------------------------------ *)

let test_racer_inherits_remaining () =
  let parent = Budget.create ~max_nodes:50 () in
  for _ = 1 to 10 do Budget.tick parent done;
  let r = Budget.racer parent ~cancel:(ref false) in
  Alcotest.(check (option int))
    "racer allowance = parent's remaining" (Some 40) (Budget.remaining_nodes r)

let test_racer_cancel_flag () =
  let parent = Budget.create ~max_nodes:1000 () in
  let cancel = ref false in
  let r = Budget.racer parent ~cancel in
  Budget.check r;
  cancel := true;
  check "cancel flag exhausts the racer" true
    (Budget.status r = Some Budget.Cancelled);
  check "the parent is untouched" true (Budget.status parent = None)

let test_racer_sees_user_cancel () =
  (* The user's own cancellation must reach every racer, through the
     node-less upstream link. *)
  let user = ref false in
  let parent = Budget.create ~cancel:user () in
  let r = Budget.racer parent ~cancel:(ref false) in
  Budget.check r;
  user := true;
  check "user cancel reaches the racer" true
    (Budget.status r = Some Budget.Cancelled)

let test_charge_accumulates () =
  let parent = Budget.create ~max_nodes:100 () in
  let r = Budget.racer parent ~cancel:(ref false) in
  for _ = 1 to 7 do Budget.tick r done;
  check_int "racer ticks stay private" 0 (Budget.spent parent);
  Budget.charge parent (Budget.spent r);
  check_int "charge merges the racer's spend" 7 (Budget.spent parent);
  Budget.charge parent 0;
  check_int "charging zero is a no-op" 7 (Budget.spent parent);
  (* Charging past the limit never raises; the next check surfaces it. *)
  Budget.charge parent 1000;
  check "over-charge surfaces on the next probe" true
    (Budget.status parent = Some Budget.Node_limit)

(* ------------------------------------------------------------------ *)
(* Part racing                                                         *)
(* ------------------------------------------------------------------ *)

(* A source whose components survive preprocessing as several distinct
   parts: directed cycles C3, C4, C5 are pairwise incomparable (C_m -> C_n
   iff n divides m), so no part is dropped as dominated by another. *)
let three_cycles =
  let dc = directed_cycle in
  Structure.disjoint_union (Structure.disjoint_union (dc 3) (dc 4)) (dc 5)

let part_targets =
  let dc = directed_cycle in
  [
    ("into itself", three_cycles, true);
    ("into a loop", dc 1, true);
    ("into C3 + C4", Structure.disjoint_union (dc 3) (dc 4), false);
    ("into C2", dc 2, false);
  ]

(* With [threads > 1] the parts race each other: the verdict must match
   the sequential one and carry a certificate the trusted checker
   accepts. *)
let test_part_racing_agrees () =
  let a = three_cycles in
  let parts (r : Core.Solver.result) =
    match r.Core.Solver.attempts with
    | { Core.Solver.route = Core.Solver.Preprocess; counters; _ } :: _ ->
      Option.value ~default:0 (List.assoc_opt "preprocess.distinct_parts" counters)
    | _ -> 0
  in
  List.iter
    (fun (name, b, expected) ->
      let r1 = Core.Solver.solve a b in
      Alcotest.(check (option bool))
        (name ^ ": sequential verdict") (Some expected) (certified_verdict a b r1);
      List.iter
        (fun threads ->
          let rn = Core.Solver.solve ~threads a b in
          check
            (Printf.sprintf "%s: threads=%d races several parts" name threads)
            true (parts rn > 1);
          Alcotest.(check (option bool))
            (Printf.sprintf "%s: threads=%d agrees" name threads)
            (Some expected) (certified_verdict a b rn))
        [ 2; 3; 4 ])
    part_targets

(* Under a node limit the part loop may run out: the verdict is then
   certified or [Unknown], never the opposite of the unbudgeted one, and
   the caller's budget is charged what the part attempts report (racer
   spend is merged back as each part finishes).  An exhausted attempt's
   count includes the one tick its slice refused, which never reaches
   the slice's parent, hence the allowance of one node per exhausted
   attempt.  The limits span runs that decide and runs that give up. *)
let test_part_racing_budget () =
  let a = three_cycles in
  let decided = ref 0 and unknown = ref 0 in
  List.iter
    (fun (name, b, expected) ->
      List.iter
        (fun max_nodes ->
          List.iter
            (fun threads ->
              let label =
                Printf.sprintf "%s, %d nodes, threads=%d" name max_nodes threads
              in
              let budget = Budget.create ~max_nodes () in
              let r = Core.Solver.solve ~budget ~threads a b in
              (match certified_verdict a b r with
              | None -> incr unknown
              | Some v ->
                incr decided;
                check (label ^ ": agrees with the unbudgeted verdict") expected v);
              let reported, refused =
                List.fold_left
                  (fun (n, x) (at : Core.Solver.attempt) ->
                    match at.Core.Solver.outcome with
                    | Core.Solver.Exhausted _ -> (n + at.Core.Solver.nodes, x + 1)
                    | _ -> (n + at.Core.Solver.nodes, x))
                  (0, 0) r.Core.Solver.attempts
              in
              check
                (Printf.sprintf "%s: spent %d + %d refused >= attempts' %d" label
                   (Budget.spent budget) refused reported)
                true
                (Budget.spent budget + refused >= reported))
            [ 1; 2; 4 ])
        [ 3; 12; 40; 400 ])
    part_targets;
  check "some budgeted runs decide" true (!decided > 0);
  check "some budgeted runs give up" true (!unknown > 0)

(* ------------------------------------------------------------------ *)
(* Portfolio racing                                                    *)
(* ------------------------------------------------------------------ *)

(* Cooperative cancellation through the race: the poller can only finish
   after the consumer accepts the winner and raises the flag, so the
   winner is always delivered first and the loser observably lost. *)
let test_race_cancellation () =
  let cancel = ref false in
  let order = ref [] in
  let tasks =
    [|
      (fun () -> `Winner);
      (fun () ->
        while not !cancel do
          Domain.cpu_relax ()
        done;
        `Loser);
    |]
  in
  Parallel.Race.run ~threads:2 ~tasks ~consume:(fun e ->
      order := e.Parallel.Race.value :: !order;
      if e.Parallel.Race.value = `Winner then cancel := true);
  Alcotest.(check bool)
    "winner consumed first, cancelled poller after" true
    (List.rev !order = [ `Winner; `Loser ])

(* The racing dispatcher agrees with the sequential one on the
   selfcheck instance distribution, and every definite racing verdict
   carries a certificate the trusted checker accepts. *)
let race_agreement_prop threads seed =
  let a, b = Core.Selfcheck.instance seed in
  let budget () = Budget.create ~max_nodes:200_000 () in
  let r1 = Core.Solver.solve ~budget:(budget ()) a b in
  let rn = Core.Solver.solve ~budget:(budget ()) ~threads a b in
  let certified =
    match rn.Core.Solver.verdict with
    | Core.Solver.Sat h -> Certificate.check a b (Certificate.Witness h)
    | Core.Solver.Unsat c -> Certificate.check a b c
    | Core.Solver.Unknown _ -> true
  in
  let agree =
    match (r1.Core.Solver.verdict, rn.Core.Solver.verdict) with
    | Core.Solver.Sat _, Core.Solver.Unsat _
    | Core.Solver.Unsat _, Core.Solver.Sat _ -> false
    | _ -> true
  in
  certified && agree

let test_race_agreement =
  qtest ~count:320 "solve ~threads agrees with threads=1"
    QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))
    (fun seed -> race_agreement_prop (2 + (seed mod 3)) seed)

(* A cancelled route never contributes a verdict: whatever attempt got
   rewritten to [Cancelled] is never the route the result credits, and
   the verdict that did win is certified. *)
let test_cancelled_never_contributes () =
  for seed = 0 to 59 do
    let a, b = Core.Selfcheck.instance seed in
    let r = Core.Solver.solve ~threads:4 a b in
    List.iter
      (fun at ->
        if at.Core.Solver.outcome = Core.Solver.Cancelled then
          check "cancelled attempt is not the verdict route" true
            (at.Core.Solver.route <> r.Core.Solver.route))
      r.Core.Solver.attempts;
    (match
       List.find_opt
         (fun (at : Core.Solver.attempt) ->
           at.Core.Solver.route = r.Core.Solver.route)
         r.Core.Solver.attempts
     with
    | Some at ->
      check "the verdict route's own attempt was never cancelled" true
        (at.Core.Solver.outcome <> Core.Solver.Cancelled)
    | None -> ());
    match r.Core.Solver.verdict with
    | Core.Solver.Sat h ->
      check "racing witness certified" true
        (Certificate.check a b (Certificate.Witness h))
    | Core.Solver.Unsat c ->
      check "racing refutation certified" true (Certificate.check a b c)
    | Core.Solver.Unknown _ -> ()
  done

let () =
  Alcotest.run "parallel"
    [
      ( "race",
        [
          Alcotest.test_case "sequential order" `Quick test_race_sequential_order;
          Alcotest.test_case "all consumed" `Quick test_race_all_consumed;
          Alcotest.test_case "task exception" `Quick test_race_task_exception;
        ] );
      ( "racer budgets",
        [
          Alcotest.test_case "inherits remaining" `Quick test_racer_inherits_remaining;
          Alcotest.test_case "cancel flag" `Quick test_racer_cancel_flag;
          Alcotest.test_case "user cancel" `Quick test_racer_sees_user_cancel;
          Alcotest.test_case "charge accumulates" `Quick test_charge_accumulates;
        ] );
      ( "part racing on pool",
        [
          Alcotest.test_case "agrees with threads=1" `Quick test_part_racing_agrees;
          Alcotest.test_case "node budget" `Quick test_part_racing_budget;
        ] );
      ( "racing",
        [
          Alcotest.test_case "cancellation" `Quick test_race_cancellation;
          test_race_agreement;
          Alcotest.test_case "cancelled never contributes" `Quick
            test_cancelled_never_contributes;
        ] );
    ]
