open Relational

(** One join-plan engine for deciding, counting and enumerating
    homomorphisms [A -> B] over the paper's two uniform tractable plan
    shapes: the GYO join forest of an acyclic source (Section 5,
    querywidth 1) and a tree decomposition of a bounded-treewidth source
    (Lemma 5.2 / Theorem 5.4).

    A plan is a rooted forest of nodes.  Each node carries sorted source
    elements, a generator of candidate rows over them (the
    repetition-consistent target tuples of a fact, or the bag assignments
    satisfying the bag's local facts) and the positions of the elements
    it shares with its parent.  Elements in no fact or bag become
    singleton nodes ranging over the whole target universe.

    One bottom-up pass keeps a row only when every child table holds its
    parent-shared key and stores the surviving rows per key.  After it,
    every stored row extends to a homomorphism, so the top-down descent
    over the tables never backtracks (Yannakakis; {e Enumerating
    Homomorphisms}, Bulatov–Dalmau–Grohe–Marx): its first answer is the
    witness, its lazy run is the polynomial-delay stream, and a
    sum-product fold over the stored rows is the count.  A node that the
    pass empties refutes the instance; the trusted checker replays the
    same pass as a [semijoin-empty] or [dp-empty] certificate.

    The budget is ticked once per candidate row examined (a target tuple
    or a bag assignment) and once per row placed by the descent. *)

type t

val of_join_forest : Hypergraph.join_forest -> Structure.t -> Structure.t -> t
(** The plan over a GYO join forest of [A]: node [i] is fact [i] of the
    forest; free elements follow as singleton roots. *)

val of_decomposition : Tree_decomposition.t -> Structure.t -> Structure.t -> t
(** The plan over a tree decomposition of [A]: node [i] is bag [i],
    every tree rooted at its lowest-numbered node.
    @raise Invalid_argument if the decomposition is not valid for [A]. *)

val node_count : t -> int

val vars : t -> int -> int array
(** The sorted source elements of a node. *)

val parent : t -> int array
(** Parent of each node, [-1] at roots. *)

val order : t -> int array
(** Every node, children before parents. *)

val candidate_rows : t -> int -> int array list
(** The candidate rows of a node, aligned with its {!vars}, before any
    semijoin. *)

val solve : ?budget:Budget.t -> t -> Homomorphism.mapping option
(** The first answer of the descent, or [None] when the pass empties a
    node.  @raise Budget.Exhausted when [budget] runs out. *)

val stream : ?budget:Budget.t -> t -> Homomorphism.mapping Seq.t
(** Every homomorphism, each a fresh array, with polynomial delay.  The
    pass runs when the first node is forced.  The sequence is
    ephemeral: force each node at most once.
    @raise Budget.Exhausted from the forcing of the node that exhausts
    [budget]. *)

val count : ?budget:Budget.t -> t -> int
(** Number of homomorphisms, by overflow-checked sum-product over the
    stored rows.
    @raise Homomorphism.Count_overflow beyond the native [int] range.
    @raise Budget.Exhausted when [budget] runs out. *)
