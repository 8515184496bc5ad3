open Relational

(* Certificate builders for the dispatcher's non-Schaefer routes.  Like
   [Schaefer.Certify], everything here is untrusted construction: each
   function re-expresses an [Unsat] answer in a shape that the trusted
   [Certificate.check] validates against raw tuples. *)

(* An empty target universe against a nonempty source is refuted by a
   childless case split: the first element has no possible image. *)
let trivial_unsat a b =
  if Structure.size b = 0 && Structure.size a > 0 then
    Some (Certificate.Search_tree (Certificate.Split { elem = 0; children = [] }))
  else None

let of_schaefer_direct ?budget a b cls =
  match trivial_unsat a b with
  | Some c -> Some c
  | None -> Schaefer.Certify.refutation ?budget a b cls

let of_booleanized ?budget a b =
  match trivial_unsat a b with
  | Some c -> Some c
  | None -> Schaefer.Certify.booleanized_refutation ?budget a b

(* Hell–Nešetřil route: the target is loop-free bipartite (a loopy target
   never refutes), so an [Unsat] answer means the source has an odd closed
   walk.  Recover one from the first BFS 2-colouring conflict: the paths
   from the two endpoints of the conflicting edge back to their common BFS
   root close a walk of odd length. *)
let odd_walk a b =
  match Graph_dichotomy.edge_symbol b with
  | None -> None
  | Some symbol -> (
    match Graph_dichotomy.two_colouring b with
    | None -> None
    | Some colouring -> (
      let n = Structure.size a in
      let loop =
        Structure.fold_tuples
          (fun _ t acc ->
            match acc with
            | Some _ -> acc
            | None ->
              if Array.length t = 2 && t.(0) = t.(1) then Some t.(0) else None)
          a None
      in
      match loop with
      | Some x -> Some (Certificate.Odd_walk { symbol; walk = [ x; x ]; colouring })
      | None ->
        let adj = Array.make (max n 1) [] in
        Structure.iter_tuples
          (fun _ t ->
            if Array.length t = 2 then begin
              adj.(t.(0)) <- t.(1) :: adj.(t.(0));
              adj.(t.(1)) <- t.(0) :: adj.(t.(1))
            end)
          a;
        let colour = Array.make (max n 1) (-1) in
        let parent = Array.make (max n 1) (-1) in
        let conflict = ref None in
        let queue = Queue.create () in
        for s = 0 to n - 1 do
          if !conflict = None && colour.(s) < 0 then begin
            colour.(s) <- 0;
            Queue.add s queue;
            while !conflict = None && not (Queue.is_empty queue) do
              let u = Queue.pop queue in
              List.iter
                (fun v ->
                  if !conflict = None then
                    if colour.(v) < 0 then begin
                      colour.(v) <- 1 - colour.(u);
                      parent.(v) <- u;
                      Queue.add v queue
                    end
                    else if colour.(v) = colour.(u) then conflict := Some (u, v))
                adj.(u)
            done
          end
        done;
        (match !conflict with
        | None -> None
        | Some (u, v) ->
          let rec to_root x = if x < 0 then [] else x :: to_root parent.(x) in
          let walk = List.rev (to_root u) @ to_root v in
          Some (Certificate.Odd_walk { symbol; walk; colouring }))))

let of_graph a b =
  match trivial_unsat a b with
  | Some c -> Some c
  | None -> (
    match Schaefer.Certify.empty_relation_refutation a b with
    | Some c -> Some c
    | None -> odd_walk a b)

let of_acyclic (forest : Treewidth.Hypergraph.join_forest) a b =
  match trivial_unsat a b with
  | Some c -> Some c
  | None ->
    Some
      (Certificate.Semijoin_empty
         {
           facts =
             Array.map (fun (symbol, fact) -> { Certificate.symbol; fact }) forest.facts;
           parent = forest.parent;
         })

let of_treewidth plan a b =
  match trivial_unsat a b with
  | Some c -> Some c
  | None ->
    let open Treewidth.Join_plan in
    Some
      (Certificate.Dp_empty
         {
           bags = Array.init (node_count plan) (fun u -> Array.to_list (vars plan u));
           parent = parent plan;
         })

(* The emptied winning family arrives as the game's chronological log of
   forth failures; an empty target needs the one-step derivation "the
   empty position cannot place element 0". *)
let of_consistency ~trace b =
  if Structure.size b = 0 then Certificate.Spoiler_win [ ([], 0) ]
  else Certificate.Spoiler_win trace

let of_backtracking ?budget a b =
  Option.map
    (fun tree -> Certificate.Search_tree tree)
    (Certificate.refute_by_search ?budget a b)
