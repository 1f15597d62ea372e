(** Generative differential fuzzing of the synthesis stack.

    Each property draws a random graph blueprint ({!Gen.spec}) plus a
    random characterized library and version assignment, exercises one
    layer of the stack, and cross-checks it against an independent
    oracle:

    - [density-differential], [list-differential],
      [min-area-differential]: the incremental schedulers against
      their historical full-recompute [run_reference] twins —
      start-for-start identical schedules and feasibility agreement
      (a latency bound one below ASAP must fail in both);
    - [design-validity]: [Design.realize] under every scheduler
      produces a design with zero {!Check.design_violations}, and the
      density design equals the density-reference design;
    - [upgrade-monotone]: swapping one operation to a more reliable,
      not-slower version keeps the design realizable and never lowers
      its reliability (the paper's metamorphic core);
    - [engine-differential]: the full synthesis engine under
      [`Density] against [`Density_reference] — same feasibility
      verdict, identical objective totals, valid result;
    - [nmr-validity]: baseline and combined redundancy synthesis
      produce designs with zero {!Check.nmr_violations}; random
      protection upgrades stay valid, protecting a simplex instance
      never lowers reliability, and no level combination drops below
      the unprotected design (Duplex -> Tmr legitimately may lower
      the total — rollback duplex beats voted TMR at library
      reliabilities — so per-step monotonicity is only claimed from
      Simplex).

    Every case is reproducible from [(seed, property, case index)]
    alone; a failing blueprint is minimized with {!Gen.shrink_spec}
    (greedy first-improvement, re-running the property per candidate)
    before it is reported. *)

type failure = {
  case : int;  (** failing case index within the property *)
  message : string;  (** the oracle's complaint, after shrinking *)
  spec : Gen.spec;  (** the shrunk counterexample *)
  original : Gen.spec;  (** the blueprint as generated *)
  shrink_steps : int;  (** accepted reductions *)
}

type outcome = {
  property : string;
  cases_run : int;
  failure : failure option;
}

val property_names : unit -> string list
(** In execution order: the built-in properties above, then any
    {!register_property} additions in registration order. *)

val register_property :
  name:string ->
  (aux:Rchls_util.Rng.t -> Gen.spec -> (unit, string) result) ->
  unit
(** Append a property supplied by a layer above this library (the
    design-space sweep registers its pruned-vs-reference differential
    this way at module-initialization time).  The property receives
    the generated blueprint and the auxiliary random stream, and
    reports a counterexample through [Error]; failures shrink exactly
    like the built-ins'.  Case streams are keyed by the property's
    name, so adding or removing a property never shifts another
    property's cases.  Raises [Invalid_argument] on a duplicate
    name. *)

val run :
  ?max_nodes:int ->
  ?properties:string list ->
  seed:int ->
  cases:int ->
  unit ->
  outcome list
(** Run [cases] cases of each selected property (default: all, in
    {!property_names} order); [max_nodes] (default 12) bounds the
    generated graphs.  A property stops at its first failure, which is
    shrunk before being reported.  Raises [Invalid_argument] on an
    unknown property name.  Deterministic: same arguments, same
    outcomes. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** One summary line per passing property; a multi-line report with
    the shrunk counterexample (in replayable [.dfg] text) for a
    failing one. *)

val all_passed : outcome list -> bool
