open Gis_util

let check_int = Alcotest.(check int)
let check_list = Alcotest.(check (list int))

let test_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * 2)
  done;
  check_int "length" 100 (Vec.length v);
  check_int "get 0" 0 (Vec.get v 0);
  check_int "get 99" 198 (Vec.get v 99);
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index 100 out of bounds [0,100)")
    (fun () -> ignore (Vec.get v 100))

let test_pop_last () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.(check (option int)) "last" (Some 3) (Vec.last v);
  Alcotest.(check (option int)) "pop" (Some 3) (Vec.pop v);
  check_list "after pop" [ 1; 2 ] (Vec.to_list v);
  ignore (Vec.pop v);
  ignore (Vec.pop v);
  Alcotest.(check (option int)) "pop empty" None (Vec.pop v)

let test_insert_remove () =
  let v = Vec.of_list [ 1; 2; 4 ] in
  Vec.insert v 2 3;
  check_list "insert middle" [ 1; 2; 3; 4 ] (Vec.to_list v);
  Vec.insert v 0 0;
  check_list "insert front" [ 0; 1; 2; 3; 4 ] (Vec.to_list v);
  Vec.insert v 5 5;
  check_list "insert end" [ 0; 1; 2; 3; 4; 5 ] (Vec.to_list v);
  check_int "remove" 3 (Vec.remove v 3);
  check_list "after remove" [ 0; 1; 2; 4; 5 ] (Vec.to_list v)

let test_iterators () =
  let v = Vec.of_list [ 5; 6; 7 ] in
  let sum = Vec.fold_left ( + ) 0 v in
  check_int "fold" 18 sum;
  let collected = ref [] in
  Vec.iteri (fun i x -> collected := (i, x) :: !collected) v;
  Alcotest.(check (list (pair int int)))
    "iteri" [ (2, 7); (1, 6); (0, 5) ] !collected;
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 6) v);
  Alcotest.(check bool) "for_all" false (Vec.for_all (fun x -> x > 5) v);
  Alcotest.(check (option int)) "find" (Some 6) (Vec.find_opt (fun x -> x mod 2 = 0) v);
  Alcotest.(check (option int)) "find_index" (Some 1) (Vec.find_index (fun x -> x = 6) v)

let test_filter_map_copy () =
  let v = Vec.of_list [ 1; 2; 3; 4; 5; 6 ] in
  let w = Vec.copy v in
  Vec.filter_in_place (fun x -> x mod 2 = 0) v;
  check_list "filtered" [ 2; 4; 6 ] (Vec.to_list v);
  check_list "copy untouched" [ 1; 2; 3; 4; 5; 6 ] (Vec.to_list w);
  let doubled = Vec.map (fun x -> x * 2) v in
  check_list "map" [ 4; 8; 12 ] (Vec.to_list doubled);
  Vec.append v doubled;
  check_list "append" [ 2; 4; 6; 4; 8; 12 ] (Vec.to_list v);
  Vec.clear v;
  Alcotest.(check bool) "cleared" true (Vec.is_empty v)

let test_set_in_place () =
  let v = Vec.of_array [| 9; 8; 7 |] in
  Vec.set v 1 42;
  check_list "set" [ 9; 42; 7 ] (Vec.to_list v)

let test_fix_iterate () =
  let x = ref 0 in
  let rounds = Fix.iterate (fun () -> incr x; !x < 5) in
  check_int "rounds" 5 rounds;
  check_int "final" 5 !x;
  Alcotest.check_raises "divergence guard"
    (Failure "Fix.iterate: did not converge") (fun () ->
      ignore (Fix.iterate ~max_rounds:10 (fun () -> true)))

let test_worklist () =
  let open Fix.Worklist in
  let w = create () in
  add w 1;
  add w 2;
  add w 1;
  (* duplicate ignored *)
  Alcotest.(check (option int)) "pop lifo" (Some 2) (pop w);
  Alcotest.(check (option int)) "pop next" (Some 1) (pop w);
  Alcotest.(check bool) "empty" true (is_empty w);
  Alcotest.(check (option int)) "pop empty" None (pop w);
  (* Re-adding after pop works. *)
  add w 1;
  Alcotest.(check (option int)) "re-add" (Some 1) (pop w)

let test_int_set_pp () =
  let s = Ints.Int_set.of_list [ 3; 1; 2 ] in
  Alcotest.(check string) "pp" "{1, 2, 3}" (Fmt.str "%a" Ints.pp_int_set s)

(* Bitsets pack [Sys.int_size] (63) bits to a word: 62 is the last bit
   of word 0, 63 the first of word 1, 126 the first of word 2. *)
let members s n = List.filter (Bitset.mem s) (List.init n Fun.id)

let test_bitset_word_boundaries () =
  let n = 127 in
  let s = Bitset.create n in
  let edges = [ 0; 62; 63; 125; 126 ] in
  List.iter (Bitset.add s) edges;
  check_list "boundary members" edges (members s n);
  Bitset.remove s 63;
  check_list "remove one word's first bit" [ 0; 62; 125; 126 ] (members s n);
  Bitset.clear s;
  check_list "cleared" [] (members s n);
  Alcotest.check_raises "past capacity"
    (Invalid_argument "Bitset: 127 out of bounds [0,127)") (fun () ->
      ignore (Bitset.mem s 127))

let test_bitset_empty () =
  let a = Bitset.create 0 and b = Bitset.create 0 in
  Alcotest.(check bool) "equal" true (Bitset.equal a b);
  Alcotest.(check bool) "transfer unchanged" false
    (Bitset.transfer ~dst:a ~gen:b ~kill:b b);
  Alcotest.check_raises "no element 0"
    (Invalid_argument "Bitset: 0 out of bounds [0,0)") (fun () ->
      Bitset.add a 0)

(* [grow] keeps every element and [iter] lists them in order, across
   word boundaries. *)
let test_bitset_grow_iter () =
  let s = Bitset.create 64 in
  List.iter (Bitset.add s) [ 0; 62; 63 ];
  let g = Bitset.grow s 200 in
  Bitset.add g 199;
  let seen = ref [] in
  Bitset.iter (fun x -> seen := x :: !seen) g;
  check_list "grown members in order" [ 0; 62; 63; 199 ] (List.rev !seen);
  check_list "the original is untouched" [ 0; 62; 63 ] (members s 64);
  Alcotest.check_raises "no shrinking" (Invalid_argument "Bitset.grow")
    (fun () -> ignore (Bitset.grow g 100))

(* Capacity 130 leaves four bits (126..129) in the last word. *)
let test_bitset_partial_word () =
  let n = 130 in
  let of_list l =
    let s = Bitset.create n in
    List.iter (Bitset.add s) l;
    s
  in
  let a = of_list [ 5; 129 ] and b = of_list [ 5; 129 ] in
  Alcotest.(check bool) "equal" true (Bitset.equal a b);
  Bitset.add b 126;
  Alcotest.(check bool) "last word differs" false (Bitset.equal a b);
  Alcotest.(check bool) "assign changes" true (Bitset.assign ~dst:a b);
  Alcotest.(check bool) "assign idempotent" false (Bitset.assign ~dst:a b);
  let inn = of_list [ 0; 63; 128; 129 ] in
  let gen = of_list [ 1; 127 ] and kill = of_list [ 63; 129 ] in
  let out = Bitset.create n in
  Alcotest.(check bool) "transfer changes" true
    (Bitset.transfer ~dst:out ~gen ~kill inn);
  check_list "gen + (in - kill)" [ 0; 1; 127; 128 ] (members out n);
  Alcotest.(check bool) "transfer stable" false
    (Bitset.transfer ~dst:out ~gen ~kill inn);
  Bitset.union_into ~dst:out kill;
  check_list "union" [ 0; 1; 63; 127; 128; 129 ] (members out n);
  ignore (Bitset.transfer ~dst:inn ~gen ~kill inn);
  check_list "transfer in place" [ 0; 1; 127; 128 ] (members inn n);
  Alcotest.check_raises "capacity mismatch"
    (Invalid_argument "Bitset: capacity mismatch") (fun () ->
      ignore (Bitset.equal a (Bitset.create 129)))

(* Every range [lo, hi) over three words, added to a full set's
   complement and removed from a full set, against element-wise
   [add]/[remove]. *)
let test_bitset_ranges () =
  let n = 3 * Sys.int_size in
  let full () =
    let s = Bitset.create n in
    for i = 0 to n - 1 do
      Bitset.add s i
    done;
    s
  in
  for lo = 0 to n do
    for hi = lo to n do
      let added = Bitset.create n and removed = full () in
      Bitset.add_range added lo hi;
      Bitset.remove_range removed lo hi;
      let inside i = i >= lo && i < hi in
      for i = 0 to n - 1 do
        if Bitset.mem added i <> inside i || Bitset.mem removed i = inside i
        then Alcotest.failf "range [%d,%d) wrong at %d" lo hi i
      done
    done
  done;
  Alcotest.check_raises "past the capacity"
    (Invalid_argument "Bitset: range [0,190) out of bounds [0,189)")
    (fun () -> Bitset.add_range (Bitset.create n) 0 (n + 1))

(* [Int_table] against [Hashtbl] over keys spaced like register hashes
   (multiples of four), growing from the smallest capacity. *)
let test_int_table () =
  let t = Ints.Int_table.create 0 and h = Hashtbl.create 16 in
  for k = 0 to 999 do
    let key = 4 * ((k * 7919) mod 1000) and v = k mod 37 in
    Ints.Int_table.replace t key v;
    Hashtbl.replace h key v
  done;
  for key = -3 to 4200 do
    check_int (Fmt.str "find %d" key)
      (Option.value ~default:(-1) (Hashtbl.find_opt h key))
      (Ints.Int_table.find t key)
  done;
  Alcotest.(check bool) "mem" false (Ints.Int_table.mem t 1)

let () =
  Alcotest.run "gis_util"
    [
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_push_get;
          Alcotest.test_case "pop/last" `Quick test_pop_last;
          Alcotest.test_case "insert/remove" `Quick test_insert_remove;
          Alcotest.test_case "iterators" `Quick test_iterators;
          Alcotest.test_case "filter/map/copy" `Quick test_filter_map_copy;
          Alcotest.test_case "set" `Quick test_set_in_place;
        ] );
      ( "fix",
        [
          Alcotest.test_case "iterate" `Quick test_fix_iterate;
          Alcotest.test_case "worklist" `Quick test_worklist;
        ] );
      ( "ints",
        [
          Alcotest.test_case "pp" `Quick test_int_set_pp;
          Alcotest.test_case "int table" `Quick test_int_table;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "word boundaries" `Quick
            test_bitset_word_boundaries;
          Alcotest.test_case "create 0" `Quick test_bitset_empty;
          Alcotest.test_case "partial last word" `Quick
            test_bitset_partial_word;
          Alcotest.test_case "ranges" `Quick test_bitset_ranges;
          Alcotest.test_case "grow and iter" `Quick test_bitset_grow_iter;
        ] );
    ]
