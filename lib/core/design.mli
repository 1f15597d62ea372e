(** A complete datapath design: a data-flow graph with a version
    assignment, a schedule and a binding.

    The design's reliability follows the paper's serial model (§5):
    the product over all operations of the reliability of the version
    executing them. *)

open Rchls_dfg
module Resource = Rchls_charlib.Resource
module Library = Rchls_charlib.Library

type scheduler = [ `Density | `Density_reference | `Force_directed ]
(** Which scheduler realizes designs; [`Density] is the paper's
    (incremental implementation).  [`Density_reference] is its
    full-recompute oracle — identical schedules, used for equivalence
    testing and benchmarking. *)

type t

val realize :
  ?scheduler:scheduler ->
  Dfg.t ->
  Library.t ->
  assignment:(Dfg.node -> Resource.t) ->
  latency:int ->
  (t, string) result
(** Schedule the graph within [latency] steps under the given version
    assignment, bind, and package.  Fails if the latency is infeasible
    or a version belongs to the wrong class. *)

val first_schedule :
  ?scheduler:scheduler ->
  Dfg.t ->
  delay:(Dfg.node -> int) ->
  latency:int ->
  (Rchls_sched.Schedule.t, string) result
(** The scheduling stage of {!realize}: the chosen scheduler alone.  It
    reads only the graph, each node's delay and the latency — never a
    version's reliability or area — so every assignment with the same
    delay vector gets the same result. *)

val realize_scheduled :
  ?scheduler:scheduler ->
  Dfg.t ->
  Library.t ->
  assignment:(Dfg.node -> Resource.t) ->
  latency:int ->
  schedule:(unit -> (Rchls_sched.Schedule.t, string) result) ->
  (t, string) result
(** {!realize} with its scheduling stage supplied: after the assignment
    check, [schedule ()] must return what {!first_schedule} returns for
    the assignment's delays (the engine answers it from its schedule
    memo).  The packer, the binding and the packaging run as in
    {!realize}, which is this function over {!first_schedule}. *)

val realize_exn :
  ?scheduler:scheduler ->
  Dfg.t ->
  Library.t ->
  assignment:(Dfg.node -> Resource.t) ->
  latency:int ->
  t

val of_parts :
  Dfg.t ->
  Library.t ->
  assignment:(Dfg.node -> Resource.t) ->
  schedule:Rchls_sched.Schedule.t ->
  binding:Rchls_binding.Binding.t ->
  (t, string) result
(** Package explicitly constructed parts (a move-based optimizer's
    state) into a design without re-running any scheduler or binder.
    Validates the cheap coherence conditions that keep the accessors
    meaningful — class-correct assignment, schedule delays equal to
    the assigned version delays, every node hosted by an instance of
    its assigned version — and leaves full legality (precedence,
    conflict-freedom, totals) to [Rchls_check.Check], which every
    annealed design must pass before it is reported. *)

val graph : t -> Dfg.t
val library : t -> Library.t
val schedule : t -> Rchls_sched.Schedule.t
val binding : t -> Rchls_binding.Binding.t

val version_of : t -> Dfg.node_id -> Resource.t
(** Version assigned to a node. *)

val latency : t -> int
(** Achieved schedule latency (steps). *)

val area : t -> int
(** Total bound-instance area (units). *)

val reliability : t -> float
(** Serial product over operation nodes. *)

val node_reliabilities : t -> (Dfg.node * float) list

val version_histogram : t -> (Resource.t * int) list
(** Nodes per version (not instances). *)

val instance_histogram : t -> (Resource.t * int) list
(** Instances per version — the "two adders of type 2" accounting. *)

val min_feasible_latency : t -> int
(** ASAP latency under the design's assignment. *)

val pp_report : Format.formatter -> t -> unit
(** Multi-line human-readable summary. *)
