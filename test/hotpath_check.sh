#!/bin/sh
# The hot-path comparison guard.  Without flambda, Stdlib's polymorphic
# [min]/[max] and the polymorphic comparison operators are out-of-line
# calls (the first into an OCaml closure, the rest into C primitives
# such as caml_lessequal) even when every argument is an int.  The
# synthesis and annealing libraries use the monomorphic forms
# ([Int.min], [Int.compare], annotated [<]), so their native objects
# must reference none of those symbols.  `nm -u` lists what each
# object imports; any forbidden symbol is printed with its object and
# the check exits 1.
#
# Two symbols are allowed, each in one object: the reference oracles
# keep their code, [Min_area.run_reference]'s [k' = k] on version ids
# and [Fault_sim]'s scalar [good <> bad] on output vectors.
#
# Usage, from the root of a built checkout: sh test/hotpath_check.sh
# (`make hotpath-check` builds first, then runs it).
set -u

dirs="dfg sched binding core redundancy anneal soft_error"
forbidden='^(camlStdlib(\.|__)(min|max)_[0-9]+|caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal))$'
allowed="rchls_sched__Min_area.o:caml_equal rchls_soft_error__Fault_sim.o:caml_notequal"

objects=0
offenders=0
for d in $dirs; do
  for o in $(find "_build/default/lib/$d" -name '*.o' 2>/dev/null | sort); do
    objects=$((objects + 1))
    name=$(basename "$o")
    found=0
    for sym in $(nm -u "$o" | awk '{print $NF}' | grep -E "$forbidden"); do
      case " $allowed " in
        *" $name:$sym "*) ;;
        *)
          echo "hotpath-check: $o references $sym"
          found=1
          ;;
      esac
    done
    offenders=$((offenders + found))
  done
done

if [ "$objects" -eq 0 ]; then
  echo "hotpath-check: no objects under _build/default/lib (build first)"
  exit 1
fi
if [ "$offenders" -gt 0 ]; then
  echo "hotpath-check: FAIL, $offenders of $objects objects call a polymorphic comparison"
  exit 1
fi
echo "hotpath-check: $objects objects, no polymorphic comparison"
