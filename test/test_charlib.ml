(* Tests for the characterized resource library: resource records,
   library queries, the text format and the Table-1 characterization
   chain. *)

module Resource = Rchls_charlib.Resource
module Library = Rchls_charlib.Library
module Characterize = Rchls_charlib.Characterize

let checkf = Alcotest.(check (float 1e-9))

(* --- Resource --- *)

let sample =
  {
    Resource.id = "x1";
    display = "X 1";
    op_class = Resource.Add;
    architecture = "rca";
    area = 2;
    delay = 1;
    reliability = 0.98;
  }

let test_validate_ok () =
  Alcotest.(check bool) "valid" true (Resource.validate sample = Ok ())

let test_validate_rejects () =
  let bad r msg =
    match Resource.validate r with
    | Ok () -> Alcotest.fail ("should reject: " ^ msg)
    | Error _ -> ()
  in
  bad { sample with Resource.id = "" } "empty id";
  bad { sample with Resource.area = 0 } "zero area";
  bad { sample with Resource.delay = -1 } "negative delay";
  bad { sample with Resource.reliability = 0. } "zero reliability";
  bad { sample with Resource.reliability = 1.1 } "reliability > 1";
  bad { sample with Resource.reliability = Float.nan } "nan reliability";
  bad { sample with Resource.reliability = Float.infinity } "infinite reliability";
  bad { sample with Resource.reliability = Float.neg_infinity } "-infinite reliability"

let test_class_names () =
  Alcotest.(check bool) "add" true (Resource.class_of_name "add" = Some Resource.Add);
  Alcotest.(check bool) "adder" true (Resource.class_of_name "Adder" = Some Resource.Add);
  Alcotest.(check bool) "mul" true (Resource.class_of_name "mul" = Some Resource.Mul);
  Alcotest.(check bool) "unknown" true (Resource.class_of_name "div" = None)

let test_reliability_ordering () =
  let a = { sample with Resource.id = "a"; reliability = 0.99 } in
  let b = { sample with Resource.id = "b"; reliability = 0.95 } in
  Alcotest.(check bool) "a first" true (Resource.compare_by_reliability a b < 0);
  (* Ties break by smaller area. *)
  let c = { a with Resource.id = "c"; area = 1 } in
  Alcotest.(check bool) "smaller area first" true (Resource.compare_by_reliability c a < 0)

(* --- Library: table 1 --- *)

let lib = Library.table1

let test_table1_contents () =
  Alcotest.(check int) "5 versions" 5 (List.length (Library.resources lib));
  let check id area delay rel =
    let r = Library.find_exn lib id in
    Alcotest.(check int) (id ^ " area") area r.Resource.area;
    Alcotest.(check int) (id ^ " delay") delay r.Resource.delay;
    checkf (id ^ " reliability") rel r.Resource.reliability
  in
  check "add1" 1 2 0.999;
  check "add2" 2 1 0.969;
  check "add3" 4 1 0.987;
  check "mul1" 2 2 0.999;
  check "mul2" 4 1 0.969

let test_versions_sorted () =
  let adds = Library.versions lib Resource.Add in
  Alcotest.(check (list string)) "by reliability" [ "add1"; "add3"; "add2" ]
    (List.map (fun (r : Resource.t) -> r.id) adds)

let test_selectors () =
  Alcotest.(check string) "most reliable add" "add1"
    (Library.most_reliable lib Resource.Add).Resource.id;
  Alcotest.(check string) "fastest add (ties by reliability)" "add3"
    (Library.fastest lib Resource.Add).Resource.id;
  Alcotest.(check string) "smallest add" "add1"
    (Library.smallest lib Resource.Add).Resource.id;
  Alcotest.(check int) "min delay" 1 (Library.min_delay lib Resource.Add)

let test_faster_versions () =
  let add1 = Library.find_exn lib "add1" in
  Alcotest.(check (list string)) "faster than add1" [ "add3"; "add2" ]
    (List.map (fun (r : Resource.t) -> r.id) (Library.faster_versions lib ~than:add1));
  let add2 = Library.find_exn lib "add2" in
  Alcotest.(check (list string)) "nothing faster than add2" []
    (List.map (fun (r : Resource.t) -> r.id) (Library.faster_versions lib ~than:add2))

let test_smaller_versions () =
  (* Smaller and not slower (paper line 26): for add3 only add2
     qualifies (add1 is smaller but slower). *)
  let add3 = Library.find_exn lib "add3" in
  Alcotest.(check (list string)) "smaller than add3" [ "add2" ]
    (List.map (fun (r : Resource.t) -> r.id) (Library.smaller_versions lib ~than:add3))

let test_of_resources_rejects () =
  Alcotest.(check bool) "empty" true (Result.is_error (Library.of_resources []));
  Alcotest.(check bool) "duplicate ids" true
    (Result.is_error (Library.of_resources [ sample; sample ]))

(* --- text format --- *)

let test_text_roundtrip () =
  match Library.of_text (Library.to_text lib) with
  | Error e -> Alcotest.fail e
  | Ok lib' ->
    List.iter2
      (fun (a : Resource.t) (b : Resource.t) ->
        Alcotest.(check string) "id" a.id b.id;
        Alcotest.(check int) "area" a.area b.area;
        Alcotest.(check int) "delay" a.delay b.delay;
        checkf "reliability" a.reliability b.reliability;
        Alcotest.(check string) "display" a.display b.display)
      (Library.resources lib) (Library.resources lib')

let test_text_errors () =
  let expect_err text =
    Alcotest.(check bool) text true (Result.is_error (Library.of_text text))
  in
  expect_err "a1 \"A\" add rca one 2 0.9";
  expect_err "a1 \"A\" frobnicator rca 1 2 0.9";
  expect_err "a1 \"A\" add rca 1 2";
  expect_err "a1 \"unterminated add rca 1 2 0.9"

let test_text_comments () =
  let text = "# comment line\n\nadd1 \"Adder 1\" add rca 1 2 0.999\n" in
  match Library.of_text text with
  | Ok l -> Alcotest.(check int) "one" 1 (List.length (Library.resources l))
  | Error e -> Alcotest.fail e

(* --- characterization --- *)

let test_paper_chain_regenerates_table1 () =
  let chains, lib' = Characterize.from_paper_inputs () in
  Alcotest.(check int) "5 chains" 5 (List.length chains);
  List.iter
    (fun (c : Characterize.chain) ->
      let published = Library.find_exn lib c.resource_id in
      Alcotest.(check (float 5e-4))
        (c.resource_id ^ " reliability")
        published.Resource.reliability c.reliability)
    chains;
  (* And the generated library is usable by the synthesizer. *)
  Alcotest.(check int) "library size" 5 (List.length (Library.resources lib'))

let test_chain_monotone_in_qcritical () =
  let chains, _ = Characterize.from_paper_inputs () in
  let get id = List.find (fun (c : Characterize.chain) -> c.resource_id = id) chains in
  let rca = get "add1" and bk = get "add2" and ks = get "add3" in
  Alcotest.(check bool) "rca most reliable" true (rca.reliability > ks.reliability);
  Alcotest.(check bool) "ks above bk" true (ks.reliability > bk.reliability);
  Alcotest.(check bool) "qc ordering matches" true
    (rca.qcritical > ks.qcritical && ks.qcritical > bk.qcritical)

let test_measured_pipeline_runs () =
  (* Tiny configuration so the full netlist + fault-injection pipeline
     stays fast; we check structure, anchoring and value sanity, not
     the published numbers (see EXPERIMENTS.md). *)
  let config = { Rchls_soft_error.Fault_sim.Campaign.default with vectors = 8 } in
  let ms, lib' = Characterize.from_measurement ~width:4 ~fault_config:config () in
  Alcotest.(check int) "5 measurements" 5 (List.length ms);
  List.iter
    (fun (m : Characterize.measurement) ->
      Alcotest.(check bool)
        (m.chain.resource_id ^ " reliability in (0,1]")
        true
        (m.chain.reliability > 0. && m.chain.reliability <= 1.);
      Alcotest.(check bool) "area positive" true (m.chain.area >= 1);
      Alcotest.(check bool) "delay positive" true (m.chain.delay >= 1))
    ms;
  (* The ripple-carry anchor must land exactly on 0.999. *)
  let rca =
    List.find (fun (m : Characterize.measurement) -> m.chain.resource_id = "add1") ms
  in
  Alcotest.(check (float 1e-9)) "anchor" Characterize.anchor_reliability
    rca.chain.reliability;
  Alcotest.(check bool) "library valid" true (List.length (Library.resources lib') = 5)

(* --- properties --- *)

let prop_reliability_of_qcritical_monotone =
  QCheck2.Test.make ~name:"reliability monotone in Qcritical" ~count:200
    QCheck2.Gen.(pair (float_range 1e-21 100e-21) (float_range 1e-21 100e-21))
    (fun (q1, q2) ->
      let env = Rchls_soft_error.Hazucha.default in
      let anchor_qc = Rchls_soft_error.Charge.paper_qcritical_rca in
      let r1 = Characterize.reliability_of_qcritical ~env ~anchor_qc q1 in
      let r2 = Characterize.reliability_of_qcritical ~env ~anchor_qc q2 in
      if q1 <= q2 then r1 <= r2 +. 1e-12 else r2 <= r1 +. 1e-12)

let prop_text_roundtrip_random =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 8)
        (bind (pair (int_range 1 9) (pair (int_range 1 4) (float_range 0.5 1.)))
           (fun (area, (delay, rel)) -> return (area, delay, rel))))
  in
  QCheck2.Test.make ~name:"library text roundtrip" ~count:100 gen (fun specs ->
      let resources =
        List.mapi
          (fun i (area, delay, rel) ->
            {
              Resource.id = Printf.sprintf "r%d" i;
              display = Printf.sprintf "R %d" i;
              op_class = (if i mod 2 = 0 then Resource.Add else Resource.Mul);
              architecture = "rca";
              area;
              delay;
              reliability = rel;
            })
          specs
      in
      match Library.of_resources resources with
      | Error _ -> true (* duplicate-free by construction; unreachable *)
      | Ok l -> (
        match Library.of_text (Library.to_text l) with
        | Ok l' ->
          List.length (Library.resources l) = List.length (Library.resources l')
        | Error _ -> false))

(* Two versions of one library have equal ids iff they are the same
   record: [Library] rejects duplicate ids, and the engine's sharing
   filter and [Design.of_parts] compare versions by id alone.  Seed 0
   mod 4 draws Table 1, every other seed a random library. *)
let prop_version_id_is_identity =
  QCheck2.Test.make ~name:"version id equality = structural equality" ~count:200
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let lib =
        if seed mod 4 = 0 then Library.table1
        else
          Rchls_check.Gen.random_library ~max_versions:(1 + (seed mod 5))
            (Rchls_util.Rng.create seed)
      in
      let rs = Library.resources lib in
      List.for_all
        (fun (a : Resource.t) ->
          List.for_all (fun (b : Resource.t) -> String.equal a.id b.id = (a = b)) rs)
        rs)

let () =
  Alcotest.run "charlib"
    [
      ( "resource",
        [
          Alcotest.test_case "validate ok" `Quick test_validate_ok;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "class names" `Quick test_class_names;
          Alcotest.test_case "reliability ordering" `Quick test_reliability_ordering;
        ] );
      ( "library",
        [
          Alcotest.test_case "table 1 contents" `Quick test_table1_contents;
          Alcotest.test_case "versions sorted" `Quick test_versions_sorted;
          Alcotest.test_case "selectors" `Quick test_selectors;
          Alcotest.test_case "faster versions" `Quick test_faster_versions;
          Alcotest.test_case "smaller versions" `Quick test_smaller_versions;
          Alcotest.test_case "of_resources rejects" `Quick test_of_resources_rejects;
        ] );
      ( "text format",
        [
          Alcotest.test_case "roundtrip" `Quick test_text_roundtrip;
          Alcotest.test_case "errors" `Quick test_text_errors;
          Alcotest.test_case "comments" `Quick test_text_comments;
        ] );
      ( "characterization",
        [
          Alcotest.test_case "paper chain = table 1" `Quick
            test_paper_chain_regenerates_table1;
          Alcotest.test_case "monotone in Qcritical" `Quick test_chain_monotone_in_qcritical;
          Alcotest.test_case "measured pipeline" `Quick test_measured_pipeline_runs;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_reliability_of_qcritical_monotone;
            prop_text_roundtrip_random;
            prop_version_id_is_identity;
          ] );
    ]
