(* Seeded inputs: a corpus of structured-family graphs written to disk
   as [.dfg] files, the form [rchls explore] reads. *)

module Gen = Rchls_check.Gen
module Rng = Rchls_util.Rng
module Corpus = Rchls_experiments.Corpus
module Op = Rchls_dfg.Op

type graph = {
  text : string;  (** the [.dfg] file's contents *)
  entry : Corpus.entry;
}

(* The operation kinds of a chain or fan-out graph: a seeded
   permutation of a fixed mix (one multiplication in five, the other
   kinds in [Gen]'s 2:1:1 ratio of additions, subtractions and
   comparisons), with a fan-out's root and sink kept in place.  The
   number of multiplications is what sets a graph's cost, and drawn
   independently per node it would move the cost of a whole pass from
   seed to seed by far more than the noise of the machine. *)
let mixed_ops rng family n =
  let ops =
    Array.init n (fun i ->
        match i mod 5 with 0 -> Op.Mul | 1 -> Op.Sub | 2 -> Op.Comp | _ -> Op.Add)
  in
  let lo, hi = if family = Gen.Fanout && n >= 3 then (1, n - 2) else (0, n - 1) in
  for i = hi downto lo + 1 do
    let j = lo + Rng.int rng (i - lo + 1) in
    let t = ops.(i) in
    ops.(i) <- ops.(j);
    ops.(j) <- t
  done;
  ops

(* [count] graphs, families round-robin, at sizes evenly spaced over
   [lo, hi] in corpus order, so every family spans the whole range.
   The seed moves operation kinds only, as {!mixed_ops} does; sizes
   are fixed for the same reason. *)
let corpus ~dir ~seed ~count ~lo ~hi =
  let rng = Rng.create seed in
  let families = Array.of_list Gen.families in
  let graphs =
    List.init count (fun k ->
        ( families.(k mod Array.length families),
          lo + (k * (hi - lo) / max 1 (count - 1)) ))
  in
  let graphs =
    List.mapi
      (fun k (family, size) ->
        let spec = Gen.family_spec family ~size rng in
        let spec =
          match family with
          | Gen.Chain | Gen.Fanout ->
            { spec with Gen.ops = mixed_ops rng family (Array.length spec.Gen.ops) }
          | Gen.Fir | Gen.Diffeq -> spec
        in
        let name = Printf.sprintf "%s-%d" (Gen.family_name family) k in
        let text = Gen.spec_to_text ~name spec in
        let file = name ^ ".dfg" in
        Harness.write_file (Filename.concat dir file) text;
        {
          text;
          entry =
            {
              Corpus.file;
              family = Gen.family_name family;
              graph_name = name;
              nodes = Array.length spec.Gen.ops;
              edges = List.length spec.Gen.edges;
            };
        })
      graphs
  in
  ({ Corpus.dir; seed; entries = List.map (fun g -> g.entry) graphs }, graphs)
