module Engine = Rchls_core.Engine

let synthesize ?scheduler ?strategy ?cache ?certificate g lib ~ld ~ad =
  Rchls_util.Trace.with_span "redundancy.combined" @@ fun () ->
  Rchls_util.Telemetry.incr "redundancy.runs";
  let set c = match certificate with Some r -> r := c | None -> () in
  let eng = ref (1, max_int) in
  match
    Engine.synthesize ?scheduler ?strategy ?cache ~certificate:eng g lib ~ld ~ad
  with
  | Error e ->
    set !eng;
    Error e
  | Ok d ->
    let red = ref (1, max_int) in
    let t =
      Orailoglu.add_redundancy ~certificate:red (Nmr_design.of_design d) ~ad
    in
    (* Within the engine interval the selected design is identical;
       within the redundancy interval the greedy takes the identical
       upgrades on it — so the combined result is certified on the
       intersection. *)
    let elo, ehi = !eng and rlo, rhi = !red in
    set (Int.max elo rlo, Int.min ehi rhi);
    Ok t
