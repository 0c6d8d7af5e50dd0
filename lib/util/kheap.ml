(* Structure-of-arrays min-heap on (float key, int seq).  The sift loops
   are written as while-loops over local array bindings so every key
   comparison compiles to a bare float compare and the element being
   placed stays in registers; nothing on the push/pop path allocates
   (growth aside). *)

type 'a t = {
  dummy : 'a;
  mutable keys : float array;
  mutable seqs : int array;
  mutable data : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

let create ?(capacity = 16) ~dummy () =
  let capacity = Stdlib.max capacity 1 in
  {
    dummy;
    keys = Array.make capacity 0.;
    seqs = Array.make capacity 0;
    data = Array.make capacity dummy;
    len = 0;
    next_seq = 0;
  }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = 2 * Array.length t.keys in
  let keys = Array.make cap 0. in
  let seqs = Array.make cap 0 in
  let data = Array.make cap t.dummy in
  Array.blit t.keys 0 keys 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.data 0 data 0 t.len;
  t.keys <- keys;
  t.seqs <- seqs;
  t.data <- data

let[@inline] push_pinned t ~key ~seq x =
  if t.len = Array.length t.keys then grow t;
  let keys = t.keys and seqs = t.seqs and data = t.data in
  (* Hole insertion: walk the hole up past every strictly-greater parent,
     then write (key, seq, x) once. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let placing = ref true in
  while !placing && !i > 0 do
    let p = (!i - 1) / 2 in
    let pk = keys.(p) in
    if pk < key || (pk = key && seqs.(p) < seq) then placing := false
    else begin
      keys.(!i) <- pk;
      seqs.(!i) <- seqs.(p);
      data.(!i) <- data.(p);
      i := p
    end
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  data.(!i) <- x

let[@inline] push t ~key x =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push_pinned t ~key ~seq x

let push_from t (a : float array) i x = push t ~key:a.(i) x

let[@inline] min_key_exn t =
  if t.len = 0 then invalid_arg "Kheap.min_key_exn: empty";
  t.keys.(0)

let min_key_into t (a : float array) i = a.(i) <- min_key_exn t

let min_seq_exn t =
  if t.len = 0 then invalid_arg "Kheap.min_seq_exn: empty";
  t.seqs.(0)

let peek_exn t =
  if t.len = 0 then invalid_arg "Kheap.peek_exn: empty";
  t.data.(0)

let pop_exn t =
  if t.len = 0 then invalid_arg "Kheap.pop_exn: empty";
  let keys = t.keys and seqs = t.seqs and data = t.data in
  let top = data.(0) in
  let n = t.len - 1 in
  t.len <- n;
  if n = 0 then data.(0) <- t.dummy
  else begin
    (* Sift the last element down from the root hole. *)
    let key = keys.(n) and seq = seqs.(n) and x = data.(n) in
    data.(n) <- t.dummy;
    let i = ref 0 in
    let placing = ref true in
    while !placing do
      let l = (2 * !i) + 1 in
      if l >= n then placing := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (keys.(r) < keys.(l)
               || (keys.(r) = keys.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        let ck = keys.(c) in
        if ck < key || (ck = key && seqs.(c) < seq) then begin
          keys.(!i) <- ck;
          seqs.(!i) <- seqs.(c);
          data.(!i) <- data.(c);
          i := c
        end
        else placing := false
      end
    done;
    keys.(!i) <- key;
    seqs.(!i) <- seq;
    data.(!i) <- x
  end;
  top

let clear t =
  Array.fill t.data 0 t.len t.dummy;
  t.len <- 0
