open Relational

(** Bounded-treewidth homomorphism testing (Theorem 5.4).

    When the source structure [A] has treewidth [k], dynamic programming
    over a tree decomposition of its Gaifman graph decides the existence of
    a homomorphism [A -> B] — and produces one — in time polynomial in
    [|A|] and [|B|] for fixed [k] (roughly [|A| * |B|^{k+1}]).

    This uniformizes the bounded-treewidth tractability results and, through
    canonical databases, gives the polynomial containment test [Q1 ⊆ Q2]
    for [Q2] of bounded treewidth.

    The dynamic program is {!Join_plan}'s one bottom-up pass over the
    decomposition.  The solving entry points take an optional [?budget],
    ticked once per enumerated bag assignment; on exhaustion they raise
    [Budget.Exhausted]. *)

val decompose : Structure.t -> Tree_decomposition.t
(** Min-fill decomposition of the Gaifman graph of a structure. *)

val solve : ?budget:Budget.t -> Structure.t -> Structure.t -> Homomorphism.mapping option
(** {!Join_plan.solve} over the plan of {!decompose}.
    @raise Budget.Exhausted when [budget] runs out. *)

val exists : Structure.t -> Structure.t -> bool

val count : ?budget:Budget.t -> Structure.t -> Structure.t -> int
(** Number of homomorphisms [A -> B], by {!Join_plan.count}'s
    sum-product over the decomposition — polynomial for bounded
    treewidth, a classical strengthening of the existence result.  All arithmetic is
    overflow-checked: counts grow like [|B|^|A|].
    @raise Homomorphism.Count_overflow when the total leaves the native
    [int] range.
    @raise Budget.Exhausted when [budget] runs out. *)
