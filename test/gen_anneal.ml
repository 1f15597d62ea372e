(* Golden anneal corpus: the greedy seed and the annealed result of
   48 knee cells at the default annealer parameters.  The graphs are
   structured-family blueprints (chain, fan-out, FIR, DiffEq; four
   sizes each, operation kinds from one fixed seed).  Each contributes
   three cells: at its tightest planned latency bound, the smallest
   feasible area bound and that bound plus two; one step looser, that
   bound plus three.  The tight chain and FIR cells accept no move,
   the tight fan-out cells improve on greedy.  Per
   cell the line carries both designs' reliability (hex float), area
   and latency, then the move statistics; the dune rule diffs the
   output against golden/anneal.expected, so any change to the
   annealer that moves a result or a counter shows up here. *)

module Gen = Rchls_check.Gen
module Rng = Rchls_util.Rng
module Library = Rchls_charlib.Library
module Design = Rchls_core.Design
module Anneal = Rchls_anneal.Anneal
module Explore = Rchls_experiments.Explore
module Sweep = Rchls_experiments.Sweep

let sizes = [ 8; 16; 24; 32 ]

(* The knee cells of one graph, found as the anneal_knee benchmark
   finds them: the first feasible area bound of the tightest planned
   latency row. *)
let knee_cells lib g =
  let lds, ads = Explore.plan g lib in
  let ld = List.hd lds in
  let lo = List.hd ads and hi = List.fold_left max 1 ads in
  let ads = List.init (hi - lo + 1) (( + ) lo) in
  let row = Sweep.run ~domains:1 Sweep.Ours g lib ~lds:[ ld ] ~ads in
  match List.find_opt (fun (c : Sweep.cell) -> c.reliability <> None) row with
  | None -> []
  | Some c -> [ (ld, c.ad); (ld, c.ad + 2); (ld + 1, c.ad + 3) ]

let () =
  let lib = Library.table1 in
  let rng = Rng.create 24 in
  List.iter
    (fun family ->
      List.iter
        (fun size ->
          let spec = Gen.family_spec family ~size rng in
          let name = Printf.sprintf "%s-%d" (Gen.family_name family) size in
          let g = Gen.graph_of_spec ~name spec in
          List.iter
            (fun (ld, ad) ->
              Printf.printf "%s ld=%d ad=%d " name ld ad;
              match Anneal.synthesize g lib ~ld ~ad with
              | Error _ -> print_endline "infeasible"
              | Ok (greedy, annealed, (s : Anneal.stats)) ->
                Printf.printf
                  "greedy %h %d %d annealed %h %d %d moves=%d accepted=%d pruned=%d \
                   exchanges=%d improved=%b\n"
                  (Design.reliability greedy) (Design.area greedy) (Design.latency greedy)
                  (Design.reliability annealed) (Design.area annealed)
                  (Design.latency annealed) s.attempted s.accepted s.pruned s.exchanges
                  s.improved)
            (knee_cells lib g))
        sizes)
    Gen.families
