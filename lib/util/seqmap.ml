type 'a t = {
  mutable keys : int array;  (* -1: free *)
  mutable vals : 'a array;
  mutable mask : int;
  mutable live : int;
  dummy : 'a;
}

let create ~capacity ~dummy =
  let n = ref 1 in
  while !n < capacity do
    n := 2 * !n
  done;
  {
    keys = Array.make !n (-1);
    vals = Array.make !n dummy;
    mask = !n - 1;
    live = 0;
    dummy;
  }

let length t = t.live
let mem t k = k >= 0 && t.keys.(k land t.mask) = k

let find t k =
  let i = k land t.mask in
  if k >= 0 && t.keys.(i) = k then t.vals.(i) else raise Not_found

let remove t k =
  let i = k land t.mask in
  if k >= 0 && t.keys.(i) = k then begin
    t.keys.(i) <- -1;
    t.vals.(i) <- t.dummy;
    t.live <- t.live - 1
  end

(* Double the table, then again while two of the live keys and [k]
   would share a slot. *)
let grow t k =
  let fits n =
    let taken = Array.make n false and ok = ref true in
    let place key =
      let j = key land (n - 1) in
      if taken.(j) then ok := false else taken.(j) <- true
    in
    place k;
    Array.iter (fun key -> if key >= 0 then place key) t.keys;
    !ok
  in
  let n = ref (2 * Array.length t.keys) in
  while not (fits !n) do
    n := 2 * !n
  done;
  let keys = Array.make !n (-1) and vals = Array.make !n t.dummy in
  Array.iteri
    (fun i key ->
      if key >= 0 then begin
        let j = key land (!n - 1) in
        keys.(j) <- key;
        vals.(j) <- t.vals.(i)
      end)
    t.keys;
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- !n - 1

let replace t k v =
  if k < 0 then invalid_arg "Seqmap.replace: negative key";
  let i = k land t.mask in
  let cur = t.keys.(i) in
  if cur = k then t.vals.(i) <- v
  else begin
    if cur >= 0 then grow t k;
    let i = k land t.mask in
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.live <- t.live + 1
  end
