(* Using a custom resource library: parse a library from its textual
   form, synthesize the DiffEq benchmark against it, and show how the
   optimum shifts when a new super-reliable (but huge) adder appears.

   Run with: dune exec examples/custom_library.exe *)

module Library = Rchls_charlib.Library
module Benchmarks = Rchls_dfg.Benchmarks
module Engine = Rchls_core.Engine
module Design = Rchls_core.Design

let base_library_text =
  {|# id display class arch area delay reliability
add1 "Adder 1" add rca 1 2 0.999
add2 "Adder 2" add bk 2 1 0.969
add3 "Adder 3" add ks 4 1 0.987
mul1 "Multiplier 1" mul csmul 2 2 0.999
mul2 "Multiplier 2" mul lfmul 4 1 0.969
|}

let hardened_extra =
  {|addh "Hardened adder" add rca 3 2 0.9999
mulh "Hardened multiplier" mul csmul 5 2 0.9995
|}

let synth name lib ld ad =
  match Engine.synthesize Benchmarks.diffeq lib ~ld ~ad with
  | Ok d ->
    Printf.printf "%-22s Ld=%d Ad=%2d -> R=%.5f (area %d)\n" name ld ad
      (Design.reliability d) (Design.area d)
  | Error f -> Format.printf "%-22s Ld=%d Ad=%2d -> %a@." name ld ad Engine.pp_failure f

let () =
  let table1 =
    match Library.of_text base_library_text with
    | Ok l -> l
    | Error e -> failwith e
  in
  let hardened =
    match Library.of_text (base_library_text ^ hardened_extra) with
    | Ok l -> l
    | Error e -> failwith e
  in
  print_endline "DiffEq with the paper's library vs a hardened-cell extension:\n";
  List.iter
    (fun (ld, ad) ->
      synth "table 1" table1 ld ad;
      synth "table 1 + hardened" hardened ld ad;
      print_newline ())
    [ (5, 11); (6, 13); (7, 11); (8, 16) ];
  print_endline "Round-trip check: the parsed library re-renders to the same text:";
  print_string (Library.to_text table1)
