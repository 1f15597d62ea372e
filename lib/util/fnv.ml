(* 64-bit FNV-1a.  One definition shared by every fingerprint in the
   tree (run reports, netlist digests, the engine's assignment keys) so
   the digests stay comparable across layers and process runs. *)

let prime = 0x100000001B3L
let seed = 0xCBF29CE484222325L

let fold_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

(* A plain loop over a local ref, so the native compiler keeps the
   running hash unboxed: [String.iter] with a closure over the ref
   allocated an [Int64] per byte.  Same digest as folding [fold_byte]. *)
let fold_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    let b = Int64.of_int (Char.code (String.unsafe_get s i)) in
    h := Int64.mul (Int64.logxor !h b) prime
  done;
  !h

(* Feed the integer little-endian, all 8 bytes, so that small ints
   still stir every round and [fold_int h a <> fold_int h b] whenever
   [a <> b] is representable in 64 bits. *)
let fold_int h n =
  let h = ref h and n = ref n in
  for _ = 0 to 7 do
    h := fold_byte !h (!n land 0xff);
    n := !n asr 8
  done;
  !h

let hash_string s = fold_string seed s

let to_hex h = Printf.sprintf "%016Lx" h
