(** Area-minimizing scheduling: find small per-group functional-unit
    counts under which list scheduling still meets the latency bound.

    Groups are typically the resource versions of the current
    assignment.  Limits start at each group's occupancy lower bound
    [ceil (total busy cycles / latency)] and are raised one at a time
    — always for the group whose increase buys the largest latency
    reduction per unit of area — until the bound is met. *)

open Rchls_dfg

val run :
  Dfg.t ->
  delay:(Dfg.node -> int) ->
  group:(Dfg.node -> 'k) ->
  group_area:('k -> int) ->
  latency:int ->
  (Schedule.t, string) result
(** Fails only if [latency] is below the ASAP latency (unreachable even
    with unbounded resources).  Counts the list-scheduling dispatches it
    runs in [sched.probes], and in [sched.probes_skipped] the probes it
    answers without one: raising the limit of a group that the current
    dispatch never blocked reproduces that dispatch exactly. *)

val run_reference :
  Dfg.t ->
  delay:(Dfg.node -> int) ->
  group:(Dfg.node -> 'k) ->
  group_area:('k -> int) ->
  latency:int ->
  (Schedule.t, string) result
(** Same results as {!run}, with the historical cost profile (per-probe
    ALAP recompute and schedule validation on the whole-graph dispatch
    loop).  Reference arm of the synthesis benchmark and oracle for the
    property tests. *)
