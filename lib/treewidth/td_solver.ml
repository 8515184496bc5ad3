let decompose a =
  let g = Graph.of_edges ~size:(Relational.Structure.size a) (Relational.Structure.gaifman_edges a) in
  Elimination.decomposition g

let plan a b = Join_plan.of_decomposition (decompose a) a b

let solve ?budget a b = Join_plan.solve ?budget (plan a b)

let exists a b = solve a b <> None

let count ?budget a b = Join_plan.count ?budget (plan a b)
