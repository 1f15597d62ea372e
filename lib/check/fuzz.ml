open Rchls_dfg
module Resource = Rchls_charlib.Resource
module Library = Rchls_charlib.Library
module Analysis = Rchls_dfg.Analysis
module Schedule = Rchls_sched.Schedule
module Density_sched = Rchls_sched.Density_sched
module List_sched = Rchls_sched.List_sched
module Min_area = Rchls_sched.Min_area
module Design = Rchls_core.Design
module Engine = Rchls_core.Engine
module Nmr_design = Rchls_redundancy.Nmr_design
module Orailoglu = Rchls_redundancy.Orailoglu
module Combined = Rchls_redundancy.Combined
module Rng = Rchls_util.Rng
module Fnv = Rchls_util.Fnv
module Telemetry = Rchls_util.Telemetry
module Trace = Rchls_util.Trace

type failure = {
  case : int;
  message : string;
  spec : Gen.spec;
  original : Gen.spec;
  shrink_steps : int;
}

type outcome = {
  property : string;
  cases_run : int;
  failure : failure option;
}

(* --- shared scaffolding -------------------------------------------- *)

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

let ( let* ) = Result.bind

let delay_of assignment (nd : Dfg.node) = assignment.(nd.id).Resource.delay

(* Every case draws a library and an assignment from the auxiliary
   stream; slack keeps most latency bounds loose but exercises the
   tight asap case too. *)
let setting aux spec =
  let g = Gen.graph_of_spec spec in
  let lib = Gen.random_library aux in
  let assignment = Gen.random_assignment aux lib g in
  let asap = Analysis.asap_latency g ~delay:(delay_of assignment) in
  (g, lib, assignment, asap)

let same_starts g a b =
  Dfg.fold_nodes g ~init:(Ok ()) (fun acc nd ->
      let* () = acc in
      let sa = Schedule.start a nd.id and sb = Schedule.start b nd.id in
      if sa = sb then Ok ()
      else err "node %s: incremental start %d, reference start %d" nd.name sa sb)

let differential what g = function
  | Ok a, Ok b -> Result.map_error (fun m -> what ^ ": " ^ m) (same_starts g a b)
  | Error _, Error _ -> Ok ()
  | Ok _, Error m -> err "%s: incremental feasible, reference failed (%s)" what m
  | Error m, Ok _ -> err "%s: reference feasible, incremental failed (%s)" what m

let no_violations what = function
  | [] -> Ok ()
  | vs ->
    err "%s: %s" what
      (String.concat "; "
         (List.map (fun v -> Format.asprintf "%a" Check.pp_violation v) vs))

(* --- the properties ------------------------------------------------ *)

let density_differential ~aux spec =
  let g, _lib, assignment, asap = setting aux spec in
  let delay = delay_of assignment in
  let latency = asap + Rng.int aux 4 in
  let* () =
    differential "density" g
      (Density_sched.run g ~delay ~latency, Density_sched.run_reference g ~delay ~latency)
  in
  (* One below ASAP must be infeasible for both arms. *)
  match
    ( Density_sched.run g ~delay ~latency:(asap - 1),
      Density_sched.run_reference g ~delay ~latency:(asap - 1) )
  with
  | Error _, Error _ -> Ok ()
  | Ok _, _ -> err "density: incremental scheduled below ASAP latency %d" asap
  | _, Ok _ -> err "density: reference scheduled below ASAP latency %d" asap

let list_differential ~aux spec =
  let g, _lib, assignment, asap = setting aux spec in
  let delay = delay_of assignment in
  let group (nd : Dfg.node) = assignment.(nd.id).Resource.id in
  let limits = Hashtbl.create 8 in
  Array.iter
    (fun (v : Resource.t) ->
      if not (Hashtbl.mem limits v.id) then
        Hashtbl.replace limits v.id (1 + Rng.int aux 3))
    assignment;
  let limit k = Hashtbl.find limits k in
  let priority_latency = if Rng.bool aux then Some (asap + Rng.int aux 4) else None in
  differential "list" g
    ( List_sched.run ?priority_latency g ~delay ~group ~limit,
      List_sched.run_reference ?priority_latency g ~delay ~group ~limit )

let min_area_differential ~aux spec =
  let g, _lib, assignment, asap = setting aux spec in
  let delay = delay_of assignment in
  let group (nd : Dfg.node) = assignment.(nd.id).Resource.id in
  let areas = Hashtbl.create 8 in
  Array.iter
    (fun (v : Resource.t) -> Hashtbl.replace areas v.Resource.id v.Resource.area)
    assignment;
  let group_area k = Hashtbl.find areas k in
  let latency = asap + Rng.int aux 4 in
  differential "min-area" g
    ( Min_area.run g ~delay ~group ~group_area ~latency,
      Min_area.run_reference g ~delay ~group ~group_area ~latency )

let design_validity ~aux spec =
  let g, lib, assignment, asap = setting aux spec in
  let latency = asap + Rng.int aux 4 in
  let realize scheduler =
    Design.realize ~scheduler g lib
      ~assignment:(fun (nd : Dfg.node) -> assignment.(nd.id))
      ~latency
  in
  let* designs =
    List.fold_left
      (fun acc (name, scheduler) ->
        let* acc = acc in
        match realize scheduler with
        | Error m -> err "%s failed at feasible latency %d: %s" name latency m
        | Ok d ->
          let* () = no_violations name (Check.design_violations d) in
          Ok ((name, d) :: acc))
      (Ok [])
      [
        ("density", `Density);
        ("density-reference", `Density_reference);
        ("force-directed", `Force_directed);
      ]
  in
  let inc = List.assoc "density" designs
  and ref_ = List.assoc "density-reference" designs in
  let* () =
    differential "density-design" g (Ok (Design.schedule inc), Ok (Design.schedule ref_))
  in
  if
    Design.area inc = Design.area ref_
    && Design.latency inc = Design.latency ref_
    && Design.reliability inc = Design.reliability ref_
  then Ok ()
  else
    err "density design (%d, %d, %.17g) <> reference design (%d, %d, %.17g)"
      (Design.latency inc) (Design.area inc) (Design.reliability inc)
      (Design.latency ref_) (Design.area ref_) (Design.reliability ref_)

let upgrade_monotone ~aux spec =
  let g, lib, assignment, asap = setting aux spec in
  let latency = asap + Rng.int aux 4 in
  let realize assignment =
    Design.realize g lib ~assignment:(fun (nd : Dfg.node) -> assignment.(nd.id)) ~latency
  in
  match realize assignment with
  | Error m -> err "base design failed at feasible latency %d: %s" latency m
  | Ok base -> (
    let id = Rng.int aux (Dfg.node_count g) in
    let v = assignment.(id) in
    let candidates =
      List.filter
        (fun (c : Resource.t) ->
          c.id <> v.Resource.id
          && c.reliability >= v.Resource.reliability
          && c.delay <= v.Resource.delay)
        (Library.versions lib v.Resource.op_class)
    in
    match candidates with
    | [] -> Ok () (* nothing strictly better available: vacuous case *)
    | cs -> (
      let c = List.nth cs (Rng.int aux (List.length cs)) in
      let upgraded = Array.copy assignment in
      upgraded.(id) <- c;
      match realize upgraded with
      | Error m ->
        err "upgrading %s from %s to %s broke realization: %s" (Dfg.node g id).name
          v.Resource.id c.Resource.id m
      | Ok d ->
        let* () = no_violations "upgraded design" (Check.design_violations d) in
        if Design.reliability d +. 1e-12 >= Design.reliability base then Ok ()
        else
          err "upgrading %s from %s (R=%.12g) to %s (R=%.12g) lowered design \
               reliability %.17g -> %.17g"
            (Dfg.node g id).name v.Resource.id v.Resource.reliability c.Resource.id
            c.Resource.reliability (Design.reliability base) (Design.reliability d)))

let engine_differential ~aux spec =
  let g, lib, _assignment, _ = setting aux spec in
  (* The engine picks its own assignments; bounds come from the
     fastest-version ASAP (the tightest reachable latency) and a
     random area budget that covers both feasible and infeasible
     runs. *)
  let fastest (nd : Dfg.node) =
    List.fold_left
      (fun acc (v : Resource.t) -> min acc v.delay)
      max_int
      (Library.versions lib (Op.resource_class nd.op))
  in
  let ld = Analysis.asap_latency g ~delay:fastest + Rng.int aux 4 in
  let max_area =
    Dfg.fold_nodes g ~init:0 (fun acc nd ->
        acc
        + List.fold_left
            (fun m (v : Resource.t) -> max m v.area)
            0
            (Library.versions lib (Op.resource_class nd.op)))
  in
  let ad = 1 + Rng.int aux max_area in
  let arm scheduler = Engine.synthesize ~scheduler g lib ~ld ~ad in
  match (arm `Density, arm `Density_reference) with
  | Ok a, Ok b ->
    let* () = no_violations "engine design" (Check.design_violations a) in
    if
      Design.latency a = Design.latency b
      && Design.area a = Design.area b
      && Design.reliability a = Design.reliability b
    then Ok ()
    else
      err "engine: density (%d, %d, %.17g) <> reference (%d, %d, %.17g) at ld=%d ad=%d"
        (Design.latency a) (Design.area a) (Design.reliability a) (Design.latency b)
        (Design.area b) (Design.reliability b) ld ad
  | Error a, Error b ->
    if a = b then Ok ()
    else
      err "engine: density failed with %a, reference with %a" (fun () ->
          Format.asprintf "%a" Engine.pp_failure)
        a
        (fun () -> Format.asprintf "%a" Engine.pp_failure)
        b
  | Ok d, Error e ->
    err "engine: density feasible (area %d), reference failed (%a) at ld=%d ad=%d"
      (Design.area d)
      (fun () -> Format.asprintf "%a" Engine.pp_failure)
      e ld ad
  | Error e, Ok d ->
    err "engine: reference feasible (area %d), density failed (%a) at ld=%d ad=%d"
      (Design.area d)
      (fun () -> Format.asprintf "%a" Engine.pp_failure)
      e ld ad

let nmr_validity ~aux spec =
  let g, lib, assignment, asap = setting aux spec in
  let fastest (nd : Dfg.node) =
    List.fold_left
      (fun acc (v : Resource.t) -> min acc v.delay)
      max_int
      (Library.versions lib (Op.resource_class nd.op))
  in
  let ld = max asap (Analysis.asap_latency g ~delay:fastest) + Rng.int aux 4 in
  let ad =
    1
    + Rng.int aux
        (3 * Dfg.fold_nodes g ~init:0 (fun acc nd ->
               acc
               + List.fold_left
                   (fun m (v : Resource.t) -> max m v.area)
                   0
                   (Library.versions lib (Op.resource_class nd.op))))
  in
  let check_arm name = function
    | Error _ -> Ok () (* infeasible bounds are a legal verdict here *)
    | Ok nmr -> no_violations name (Check.nmr_violations nmr)
  in
  let* () = check_arm "baseline" (Orailoglu.synthesize g lib ~ld ~ad) in
  let* () = check_arm "combined" (Combined.synthesize g lib ~ld ~ad) in
  (* Random protection upgrades on a hand-rolled design.  Per-step
     monotonicity only holds from Simplex (duplex-with-rollback
     [2r - r^2] beats voted TMR [~(3r^2 - 2r^3)] at library
     reliabilities, so Duplex -> Tmr may lower the total); any level
     combination must stay valid and at or above the unprotected
     design's reliability. *)
  match
    Design.realize g lib
      ~assignment:(fun (nd : Dfg.node) -> assignment.(nd.id))
      ~latency:(asap + 2)
  with
  | Error m -> err "protection base design failed: %s" m
  | Ok d ->
    let unprotected = Design.reliability d in
    let nmr = ref (Nmr_design.of_design d) in
    let steps = Rng.int aux 4 in
    let result = ref (Ok ()) in
    for _ = 1 to steps do
      match !result with
      | Error _ -> ()
      | Ok () ->
        let levels = Nmr_design.levels !nmr in
        let i = Rng.int aux (List.length levels) in
        let _, current = List.nth levels i in
        let next =
          match current with
          | Nmr_design.Simplex -> if Rng.bool aux then Nmr_design.Duplex else Nmr_design.Tmr
          | Nmr_design.Duplex | Nmr_design.Tmr -> Nmr_design.Tmr
        in
        if next <> current then begin
          let before = Nmr_design.reliability !nmr in
          let upgraded = Nmr_design.protect !nmr ~instance_index:i next in
          let after = Nmr_design.reliability upgraded in
          result :=
            (let* () = no_violations "protected design" (Check.nmr_violations upgraded) in
             if current = Nmr_design.Simplex && after +. 1e-12 < before then
               err "protecting simplex instance %d lowered reliability %.17g -> %.17g" i
                 before after
             else if after +. 1e-12 < unprotected then
               err "protection drove reliability %.17g below the unprotected %.17g" after
                 unprotected
             else Ok ());
          nmr := upgraded
        end
    done;
    !result

type property = {
  p_name : string;
  p_run : aux:Rng.t -> Gen.spec -> (unit, string) result;
}

let builtin_properties =
  [
    { p_name = "density-differential"; p_run = density_differential };
    { p_name = "list-differential"; p_run = list_differential };
    { p_name = "min-area-differential"; p_run = min_area_differential };
    { p_name = "design-validity"; p_run = design_validity };
    { p_name = "upgrade-monotone"; p_run = upgrade_monotone };
    { p_name = "engine-differential"; p_run = engine_differential };
    { p_name = "nmr-validity"; p_run = nmr_validity };
  ]

(* Extension point for layers above this library (the design-space
   sweep in [Rchls_experiments] registers its pruned-vs-reference
   differential here — it cannot be a built-in because this library
   sits below the experiments layer).  Registered properties append
   after the built-ins in registration order.  Case streams are keyed
   by the property's name, so adding or removing a property moves no
   other property's cases, whatever order the libraries initialize
   in. *)
let registered : property list ref = ref []

let register_property ~name run =
  if
    List.exists
      (fun p -> p.p_name = name)
      (builtin_properties @ !registered)
  then invalid_arg (Printf.sprintf "Fuzz.register_property: duplicate %S" name)
  else registered := !registered @ [ { p_name = name; p_run = run } ]

let properties () = builtin_properties @ !registered
let property_names () = List.map (fun p -> p.p_name) (properties ())

(* --- driver --------------------------------------------------------- *)

(* A property must report through its result; an escaped exception is
   itself a finding (and shrinkable like any other failure). *)
let attempt p ~aux spec =
  match p.p_run ~aux spec with
  | r -> r
  | exception e -> err "uncaught exception: %s" (Printexc.to_string e)

(* Derived streams, keyed by (seed, property name, case index): one
   for the blueprint, one (re-creatable, so shrinking replays the same
   library/assignment draws against each candidate) for everything
   else. *)
let case_key seed p ci tag =
  let name = Int64.to_int (Fnv.hash_string p.p_name) in
  Int64.to_int
    (Fnv.fold_int
       (Fnv.fold_int (Fnv.fold_int (Fnv.fold_int Fnv.seed seed) name) ci)
       tag)

let max_shrink_steps = 200

let shrink p ~aux_seed spec message =
  let spec = ref spec and message = ref message and steps = ref 0 in
  let improved = ref true in
  while !improved && !steps < max_shrink_steps do
    improved := false;
    match
      Seq.find_map
        (fun cand ->
          match attempt p ~aux:(Rng.create aux_seed) cand with
          | Error m -> Some (cand, m)
          | Ok () -> None)
        (Gen.shrink_spec !spec)
    with
    | Some (cand, m) ->
      spec := cand;
      message := m;
      incr steps;
      improved := true
    | None -> ()
  done;
  (!spec, !message, !steps)

let run_property ~seed ~cases ~max_nodes p =
  Trace.with_span ("fuzz." ^ p.p_name) (fun () ->
      let failure = ref None in
      let case = ref 0 in
      while Option.is_none !failure && !case < cases do
        Telemetry.incr "fuzz.cases";
        let spec = Gen.random_spec ~max_nodes (Rng.create (case_key seed p !case 0)) in
        let aux_seed = case_key seed p !case 1 in
        (match attempt p ~aux:(Rng.create aux_seed) spec with
        | Ok () -> ()
        | Error message ->
          Telemetry.incr "fuzz.failures";
          let shrunk, message, shrink_steps = shrink p ~aux_seed spec message in
          failure :=
            Some { case = !case; message; spec = shrunk; original = spec; shrink_steps });
        incr case
      done;
      { property = p.p_name; cases_run = !case; failure = !failure })

let run ?(max_nodes = 12) ?properties:names ~seed ~cases () =
  let all = properties () in
  let names =
    match names with Some ns -> ns | None -> List.map (fun p -> p.p_name) all
  in
  let selected =
    List.map
      (fun n ->
        match List.find_opt (fun p -> p.p_name = n) all with
        | Some p -> p
        | None ->
          invalid_arg
            (Printf.sprintf "Fuzz.run: unknown property %S (known: %s)" n
               (String.concat ", " (List.map (fun p -> p.p_name) all))))
      names
  in
  List.map (run_property ~seed ~cases ~max_nodes) selected

let pp_outcome ppf o =
  match o.failure with
  | None ->
    Format.fprintf ppf "PASS %-22s %d cases" o.property o.cases_run
  | Some f ->
    Format.fprintf ppf
      "@[<v>FAIL %s at case %d (shrunk %d steps, %d node(s), %d edge(s))@,\
       %s@,counterexample:@,%s@]"
      o.property f.case f.shrink_steps
      (Array.length f.spec.Gen.ops)
      (List.length f.spec.Gen.edges)
      f.message
      (String.trim (Gen.spec_to_text f.spec))

let all_passed = List.for_all (fun o -> Option.is_none o.failure)
