(** The comparison baseline (ref [3], Orailoglu & Karri): fixed
    single-version allocation plus N-modular redundancy.

    One version per functional-unit class (the fastest, so tight
    latency bounds remain reachable) is used for every operation; the
    design is scheduled and bound, and the remaining area budget is
    spent greedily on redundancy — each step protects the instance
    with the best reliability-gain-per-area-unit, duplex first, then
    TMR.  This reproduces the "Ref [3]" columns of Table 2. *)

module Design = Rchls_core.Design
module Library = Rchls_charlib.Library
module Engine = Rchls_core.Engine

val base_design :
  ?scheduler:Design.scheduler ->
  Rchls_dfg.Dfg.t ->
  Library.t ->
  ld:int ->
  (Design.t, Engine.failure) result
(** The unprotected fixed-version design scheduled within [ld]. *)

val synthesize :
  ?scheduler:Design.scheduler ->
  ?certificate:(int * int) ref ->
  Rchls_dfg.Dfg.t ->
  Library.t ->
  ld:int ->
  ad:int ->
  (Nmr_design.t, Engine.failure) result
(** Baseline flow: {!base_design}, then greedy redundancy insertion
    within the area bound.  [certificate] receives the certified
    area-bound interval [(lo, hi)]: for every [ad'] in it the call
    returns the identical result (same contract as
    [Engine.synthesize]'s certificate — every [ad]-dependent decision
    is an integer comparison whose outcome is constant over the
    interval). *)

val add_redundancy :
  ?certificate:(int * int) ref -> Nmr_design.t -> ad:int -> Nmr_design.t
(** The greedy insertion alone: repeatedly apply the protection upgrade
    with the highest log-reliability gain per area unit that still fits
    [ad].  Exposed for the combined approach and for tests.
    [certificate] receives the interval of area bounds replaying the
    identical upgrade sequence on this input. *)
