open Relational

type outcome =
  | Hom of Homomorphism.mapping
  | No_hom
  | Not_applicable of string

let target_relation b name arity =
  match Structure.relation b name with
  | r -> Boolean_relation.of_relation r
  | exception Not_found -> Boolean_relation.create arity []

(* Symbols of A's vocabulary that carry at least one fact, with their
   arities. *)
let used_symbols a =
  List.filter
    (fun (name, _) -> not (Relation.is_empty (Structure.relation a name)))
    (Vocabulary.symbols (Structure.vocabulary a))

let build_formula ?(budget = Budget.unlimited) a b cls =
  let n = Structure.size a in
  let clausal = ref [] and linear = ref [] in
  List.iter
    (fun (name, arity) ->
      let def = Define.defining (target_relation b name arity) cls in
      Relation.iter
        (fun t ->
          Budget.tick budget;
          match def with
          | Define.Clausal f -> clausal := Cnf.map_vars ~nvars:n (fun p -> t.(p)) f :: !clausal
          | Define.Linear s ->
            List.iter
              (fun e ->
                let coeffs = Array.make n false in
                Array.iteri
                  (fun p c -> if c then coeffs.(t.(p)) <- not coeffs.(t.(p)))
                  e.Gf2.coeffs;
                linear := { Gf2.coeffs; rhs = e.Gf2.rhs } :: !linear)
              s.Gf2.equations)
        (Structure.relation a name))
    (used_symbols a);
  match cls with
  | Classify.Affine -> Define.Linear (Gf2.make_system ~nvars:n !linear)
  | Classify.Horn | Classify.Dual_horn | Classify.Bijunctive ->
    Define.Clausal
      (if !clausal = [] then Cnf.make ~nvars:n [] else Cnf.conjoin !clausal)
  | Classify.Zero_valid | Classify.One_valid ->
    invalid_arg "Uniform.build_formula: trivial class"

let mapping_of_assignment assignment =
  Array.map (fun v -> if v then 1 else 0) assignment

let preconditions a b =
  if Structure.size b <> 2 then Some "target is not Boolean"
  else if
    not
      (List.for_all
         (fun (name, arity) ->
           (not (Vocabulary.mem (Structure.vocabulary b) name))
           || Vocabulary.arity (Structure.vocabulary b) name = arity)
         (Vocabulary.symbols (Structure.vocabulary a)))
  then Some "vocabulary arity mismatch"
  else None

(* Symbols used by A but absent from B kill any homomorphism, and so does
   a nullary fact of A missing from B; neither classify nor propagation
   sees them, so rule them out up front. *)
let missing_symbol a b =
  List.exists
    (fun (name, _) -> not (Vocabulary.mem (Structure.vocabulary b) name))
    (used_symbols a)

let solve_with ?(budget = Budget.unlimited) ~route a b =
  Budget.check budget;
  match preconditions a b with
  | Some reason -> Not_applicable reason
  | None -> (
    if missing_symbol a b || not (Homomorphism.nullary_facts_hold a b) then No_hom
    else
      match Classify.classify b with
      | None -> Not_applicable "target is not a Schaefer structure"
      | Some Classify.Zero_valid -> Hom (Array.make (Structure.size a) 0)
      | Some Classify.One_valid -> Hom (Array.make (Structure.size a) 1)
      | Some cls -> route cls)

let formula_route ?budget a b cls =
  match build_formula ?budget a b cls with
  | Define.Clausal f -> (
    let result =
      match cls with
      | Classify.Horn -> Horn_sat.solve f
      | Classify.Dual_horn -> Horn_sat.solve_dual f
      | Classify.Bijunctive -> Two_sat.solve f
      | _ -> assert false
    in
    match result with
    | Some assignment -> Hom (mapping_of_assignment assignment)
    | None -> No_hom)
  | Define.Linear s -> (
    match Gf2.solve s with
    | Some assignment -> Hom (mapping_of_assignment assignment)
    | None -> No_hom)

let solve ?budget a b =
  solve_with ?budget a b ~route:(fun cls -> formula_route ?budget a b cls)

(* ------------------------------------------------------------------ *)
(* Direct algorithms (Theorem 3.4).                                    *)
(* ------------------------------------------------------------------ *)

let occurrences a =
  let occ = Array.make (max (Structure.size a) 1) [] in
  Structure.iter_tuples
    (fun name t ->
      List.iter (fun x -> occ.(x) <- (name, t) :: occ.(x)) (Tuple.elements t))
    a;
  occ

let target_masks a b =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (name, arity) ->
      Hashtbl.replace table name
        (Boolean_relation.masks (target_relation b name arity)))
    (Vocabulary.symbols (Structure.vocabulary a));
  table

let solve_horn_direct ?(budget = Budget.unlimited) a b =
  let n = Structure.size a in
  let one = Array.make (max n 1) false in
  let occ = occurrences a in
  let masks = target_masks a b in
  let queue = Queue.create () in
  let set x =
    if not one.(x) then begin
      one.(x) <- true;
      Telemetry.count "schaefer.unit_propagations" 1;
      Queue.add x queue
    end
  in
  let ones_mask (t : Tuple.t) =
    let m = ref 0 in
    Array.iteri (fun i x -> if one.(x) then m := !m lor (1 lsl i)) t;
    !m
  in
  let process (name, (t : Tuple.t)) =
    Budget.tick budget;
    let ts = Hashtbl.find masks name in
    let x = ones_mask t in
    Array.iteri
      (fun j el ->
        if not one.(el) then
          let forced =
            List.for_all
              (fun t' -> t' land x <> x || (t' lsr j) land 1 = 1)
              ts
          in
          if forced then set el)
      t
  in
  Structure.iter_tuples (fun name t -> process (name, t)) a;
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    List.iter process occ.(x)
  done;
  let feasible = ref true in
  Structure.iter_tuples
    (fun name t ->
      if !feasible then begin
        let ts = Hashtbl.find masks name in
        let x = ones_mask t in
        if not (List.exists (fun t' -> t' land x = x) ts) then feasible := false
      end)
    a;
  if !feasible then Some (Array.init n (fun x -> if one.(x) then 1 else 0)) else None

let flip_boolean b = Structure.map_universe b ~size:2 (fun v -> 1 - v)

let solve_dual_horn_direct ?budget a b =
  match solve_horn_direct ?budget a (flip_boolean b) with
  | None -> None
  | Some h -> Some (Array.map (fun v -> 1 - v) h)

let solve_bijunctive_direct ?(budget = Budget.unlimited) a b =
  let n = Structure.size a in
  let value = Array.make (max n 1) (-1) in
  let occ = occurrences a in
  let index_of =
    let table = Hashtbl.create 16 in
    List.iter
      (fun (name, arity) ->
        (* A symbol of A's vocabulary with no relation in B acts as the
           empty relation of the declared arity: any fact over it is
           unsatisfiable, which propagation reports as a conflict. *)
        let r =
          match Structure.relation b name with
          | r -> r
          | exception Not_found -> Relation.empty arity
        in
        Hashtbl.replace table name (Relation.index r))
      (Vocabulary.symbols (Structure.vocabulary a));
    table
  in
  let trail = Stack.create () in
  let queue = Queue.create () in
  let conflict = ref false in
  let set x v =
    if value.(x) = -1 then begin
      value.(x) <- v;
      Telemetry.count "schaefer.unit_propagations" 1;
      Stack.push x trail;
      Queue.add x queue
    end
    else if value.(x) <> v then conflict := true
  in
  let propagate_element x =
    Budget.tick budget;
    let v = value.(x) in
    List.iter
      (fun (name, (t : Tuple.t)) ->
        if not !conflict then begin
          let ix = Hashtbl.find index_of name in
          let arity = Array.length t in
          for k = 0 to arity - 1 do
            if (not !conflict) && t.(k) = x then begin
              (* Indexed lookup of the tuples compatible with the fixed
                 value instead of filtering the whole relation. *)
              let matching = Relation.Index.matching ix ~pos:k ~value:v in
              if Array.length matching = 0 then conflict := true
              else
                for l = 0 to arity - 1 do
                  if not !conflict then begin
                    let first = matching.(0).(l) in
                    if
                      Array.for_all (fun (t' : Tuple.t) -> t'.(l) = first) matching
                    then set t.(l) first
                  end
                done
            end
          done
        end)
      occ.(x)
  in
  let propagate_from x v =
    conflict := false;
    Queue.clear queue;
    set x v;
    while (not !conflict) && not (Queue.is_empty queue) do
      propagate_element (Queue.pop queue)
    done;
    not !conflict
  in
  let undo_phase () =
    while not (Stack.is_empty trail) do
      value.(Stack.pop trail) <- -1
    done
  in
  let rec phases x =
    if x >= n then Some (Array.sub value 0 n)
    else if value.(x) >= 0 then phases (x + 1)
    else if propagate_from x 0 then begin
      Stack.clear trail;
      phases (x + 1)
    end
    else begin
      undo_phase ();
      if propagate_from x 1 then begin
        Stack.clear trail;
        phases (x + 1)
      end
      else None
    end
  in
  match phases 0 with
  | None -> None
  | Some h ->
    if Homomorphism.is_homomorphism a b h then Some h
    else
      invalid_arg
        "Uniform.solve_bijunctive_direct: propagation produced a non-homomorphism \
         (is the target really bijunctive?)"

let solve_direct ?budget a b =
  solve_with ?budget a b ~route:(fun cls ->
      let lift = function Some h -> Hom h | None -> No_hom in
      match cls with
      | Classify.Horn -> lift (solve_horn_direct ?budget a b)
      | Classify.Dual_horn -> lift (solve_dual_horn_direct ?budget a b)
      | Classify.Bijunctive -> lift (solve_bijunctive_direct ?budget a b)
      | Classify.Affine -> formula_route ?budget a b Classify.Affine
      | Classify.Zero_valid | Classify.One_valid -> assert false)
