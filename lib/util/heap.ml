type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }

let grow h x =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let data = Array.make (max 8 (2 * cap)) x in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp h.data.(i) h.data.(parent) < 0 then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < h.size && h.cmp h.data.(l) h.data.(i) < 0 then l else i in
  let smallest =
    if r < h.size && h.cmp h.data.(r) h.data.(smallest) < 0 then r else smallest
  in
  if smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(smallest);
    h.data.(smallest) <- tmp;
    sift_down h smallest
  end

let push h x =
  grow h x;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let is_empty h = h.size = 0

let top h = if h.size = 0 then invalid_arg "Heap.top: empty" else h.data.(0)

let pop h =
  let top = top h in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.data.(0) <- h.data.(h.size);
    sift_down h 0
  end;
  top

let rekey f h =
  for i = 0 to h.size - 1 do
    h.data.(i) <- f h.data.(i)
  done;
  for i = (h.size / 2) - 1 downto 0 do
    sift_down h i
  done
