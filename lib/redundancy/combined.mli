(** The unified approach of the paper's §7 last experiment: run the
    reliability-centric version selection first, then spend whatever
    area budget remains on redundancy, duplicating each protected
    instance with its own selected version (the paper: "when we add
    redundancy for an operator, we use the same version selected by our
    reliability-centric approach as duplicate(s)"). *)

module Engine = Rchls_core.Engine

val synthesize :
  ?scheduler:Rchls_core.Design.scheduler ->
  ?strategy:Engine.strategy ->
  ?cache:Rchls_core.Engine.cache ->
  ?certificate:(int * int) ref ->
  Rchls_dfg.Dfg.t ->
  Rchls_charlib.Library.t ->
  ld:int ->
  ad:int ->
  (Nmr_design.t, Engine.failure) result
(** Version selection under [ld]/[ad], then greedy redundancy insertion
    in the remaining area.  [certificate] receives the intersection of
    the engine's and the insertion's certified area-bound intervals:
    the whole combined result is identical for every [ad'] in it. *)
