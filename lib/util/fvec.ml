type t = { mutable data : float array; mutable len : int }

let create ?(capacity = 64) () =
  { data = Array.make (max 1 capacity) 0.; len = 0 }

let length t = t.len

let[@inline] push t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0. in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let push_from t (a : float array) i = push t a.(i)

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Fvec.get";
  t.data.(i)

let to_array t = Array.sub t.data 0 t.len

(* Stdlib's [Array.sort] (a ternary heap sort) specialised to [float array]
   and [Float.compare]: the same comparisons in the same order, so the
   result is the same permutation bit for bit ([-0.] against [0.], [nan]
   payloads), but loads stay unboxed and no comparison calls into C.  The
   original's recursions are loops here because a float argument would box;
   [maxson] returns -1 where the original raises [Bottom i]. *)
let[@inline] maxson (a : float array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
    if Float.compare a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
  end
  else if i31 + 1 < l && Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1
  else if i31 < l then i31
  else -1

let sort (a : float array) =
  let l = Array.length a in
  (* Heapify: trickle each inner node's element down. *)
  for top = ((l + 1) / 3) - 1 downto 0 do
    let e = a.(top) in
    let i = ref top and moving = ref true in
    while !moving do
      let j = maxson a l !i in
      if j >= 0 && Float.compare a.(j) e > 0 then begin
        a.(!i) <- a.(j);
        i := j
      end
      else begin
        a.(!i) <- e;
        moving := false
      end
    done
  done;
  for last = l - 1 downto 2 do
    let e = a.(last) in
    a.(last) <- a.(0);
    (* Bubble the root's hole down to a leaf, then trickle [e] up. *)
    let i = ref 0 and j = ref (maxson a last 0) in
    while !j >= 0 do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson a last !i
    done;
    let moving = ref true in
    while !moving do
      let father = (!i - 1) / 3 in
      assert (!i <> father);
      if Float.compare a.(father) e < 0 then begin
        a.(!i) <- a.(father);
        if father > 0 then i := father
        else begin
          a.(0) <- e;
          moving := false
        end
      end
      else begin
        a.(!i) <- e;
        moving := false
      end
    done
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

let sorted_copy t =
  let a = to_array t in
  sort a;
  a

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let clear t = t.len <- 0
