(** Resource binding: mapping scheduled operations onto shared
    functional-unit instances.

    Operations bound to the same version whose execution intervals do
    not overlap share one instance (left-edge assignment per version).
    The total area of a bound design is the sum of instance areas —
    the quantity the paper's algorithm checks against the area bound. *)

open Rchls_dfg
module Resource = Rchls_charlib.Resource

type instance = {
  resource : Resource.t;
  index : int;  (** 0-based within the version's instance list *)
  ops : Dfg.node_id list;  (** operations hosted, in start order *)
}

type t

val bind :
  Rchls_sched.Schedule.t -> assignment:(Dfg.node -> Resource.t) -> t
(** Bind a schedule under a per-node version assignment.  The schedule
    must have been built with delays consistent with [assignment]
    (checked: raises [Invalid_argument] otherwise). *)

val area_of_schedule :
  Rchls_sched.Schedule.t -> assignment:(Dfg.node -> Resource.t) -> int
(** [area (bind sched ~assignment)], computed without binding: the sum
    over versions of the version's area times the most operations of
    that version running at one step.  Left-edge is optimal on
    interval graphs, so it opens exactly that many instances
    (tested). *)

val of_instances : node_count:int -> instance list -> (t, string) result
(** Package an explicit instance partition (a move-based optimizer's
    binding state, or a deliberately broken binding for the checker's
    negative tests).  Validates only that the instances partition the
    node ids [0 .. node_count-1] — every node hosted by exactly one
    instance — so the node-to-instance map is total.  Deeper legality
    (version agreement, conflict-freedom per step, distinct
    [(resource, index)] identities) is deliberately {e not} enforced
    here: that is [Rchls_check.Check]'s job, and the negative tests
    need to build bindings that violate it. *)

val instances : t -> instance list
(** All instances, grouped by version, stable order. *)

val instance_of_node : t -> Dfg.node_id -> instance
(** The instance hosting a node.  Raises [Not_found] on unknown id. *)

val sharing_partners : t -> Dfg.node_id -> Dfg.node_id list
(** Other operations hosted by the same instance (the nodes the
    paper's area-reduction step must downgrade together). *)

val area : t -> int
(** Total area over instances. *)

val instance_count : t -> int

val count_by_resource : t -> (Resource.t * int) list
(** Instances per version, e.g. "two adders of type 2". *)

val pp : Format.formatter -> t -> unit
