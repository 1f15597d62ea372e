(** Resource-constrained list scheduling (baseline scheduler).

    Ready operations are dispatched in priority order (longest
    remaining path to a sink, then id) as long as the per-group
    instance limit is not exceeded at any step the operation would
    occupy. *)

open Rchls_dfg

val run :
  ?priority_latency:int ->
  Dfg.t ->
  delay:(Dfg.node -> int) ->
  group:(Dfg.node -> 'k) ->
  limit:('k -> int) ->
  (Schedule.t, string) result
(** Schedule with at most [limit (group node)] simultaneous operations
    of each group.  Fails if some group's limit is not positive.

    Priority: by default the longest remaining path to a sink; when
    [priority_latency] (a target the caller wants met) is given and
    feasible, ALAP urgency against that horizon is used instead —
    operations whose latest start is earliest go first, which resolves
    ties the path-length heuristic gets wrong. *)

val run_exn :
  ?priority_latency:int ->
  Dfg.t ->
  delay:(Dfg.node -> int) ->
  group:(Dfg.node -> 'k) ->
  limit:('k -> int) ->
  Schedule.t

val run_reference :
  ?priority_latency:int ->
  Dfg.t ->
  delay:(Dfg.node -> int) ->
  group:(Dfg.node -> 'k) ->
  limit:('k -> int) ->
  (Schedule.t, string) result
(** The historical dispatch loop (whole-graph readiness filter every
    step, hashed occupancy): same results as {!run}, old cost profile.
    Reference arm of the synthesis benchmark and oracle for the
    dispatch-equivalence property tests. *)

(** {2 Reusable dispatcher}

    For callers probing many limit vectors against one graph and
    priority (the min-area packer): the per-graph setup — delays,
    dense group codes, predecessor counts, the priority order, scratch
    arrays — is paid once, and each {!dispatch} only resets scratch. *)

type 'k dispatcher

val dispatcher :
  Dfg.t ->
  delay:(Dfg.node -> int) ->
  group:(Dfg.node -> 'k) ->
  prio:int array ->
  'k dispatcher
(** [prio] is indexed by node id; higher is dispatched first, ties by
    ascending id. *)

val groups : 'k dispatcher -> 'k array
(** One representative group value per dense group code, codes in
    order of first occurrence by node id. *)

val group_code : 'k dispatcher -> int -> int
(** Dense group code of a node id. *)

val limits_of : 'k dispatcher -> limit:('k -> int) -> int array
(** Evaluate [limit] once per distinct group, indexed by the
    dispatcher's dense group codes, for {!dispatch}. *)

val dispatch : 'k dispatcher -> limits:int array -> int array * int
(** One dispatch run; same order as {!run}.  The returned start array
    aliases the dispatcher's scratch: copy it before the next
    {!dispatch} if it must survive.  Limits must be positive (a
    non-positive one trips the no-progress guard). *)

val blocked : 'k dispatcher -> bool array
(** After a {!dispatch}: per dense group code, whether some operation
    of the group failed its fit check.  A group that was never blocked
    cannot change the dispatch when its limit alone is raised — every
    check it passed still passes, and no other group reads its limit —
    so raising it yields the same starts and latency.  Aliases the
    dispatcher's scratch like the start array. *)
