//! The SPEC CPU2006 stand-in suite: 29 mini-C benchmarks, one per SPEC
//! benchmark the paper's Table 1 reports, each imitating the memory
//! access idiom of its namesake.
//!
//! Conventions shared by all benchmarks:
//!
//! * the first input value scales the work (`train` small, `ref` large);
//! * where a second input exists it selects a *mode*: the `ref` run
//!   exercises code paths the `train` run does not, which is what makes
//!   allow-list coverage land below 100% for those benchmarks (paper
//!   Table 1, coverage column);
//! * Fortran-derived benchmarks bias array base pointers (`arr - K`),
//!   the anti-idiom that produces false positives without the §5
//!   allow-list (paper §7.1);
//! * each benchmark prints a checksum, used to verify that hardening
//!   preserves behavior.

use crate::{Lang, Workload, PRELUDE};

fn w(
    name: &'static str,
    lang: Lang,
    source: String,
    train_input: Vec<i64>,
    ref_input: Vec<i64>,
) -> Workload {
    Workload {
        name,
        lang,
        source,
        train_input,
        ref_input,
        requires_x87: false,
        planted_errors: 0,
        anti_idiom_sites: 0,
    }
}

/// Generates `n` distinct anti-idiom read sites over a biased pointer
/// `{bias}` (each statement is a distinct instruction, hence a distinct
/// false-positive site).
fn anti_idiom_reads(bias: &str, k_elems: i64, n: usize) -> String {
    let mut s = String::new();
    for i in 0..n {
        s.push_str(&format!(
            "    chk = chk + {bias}[{} + (step % 4)];\n",
            k_elems + (i as i64 % 8)
        ));
    }
    s
}

/// `400.perlbench`: chained hash table with byte-string keys.
fn perlbench() -> Workload {
    let src = format!(
        "{PRELUDE}
global chk;
global opstat[4];
global cstat[8];
fn classify(x) {{
    return x & 7;
}}
fn cbump(x) {{
    var ci = classify(x);
    var cst = &cstat;
    cst[ci] = cst[ci] + 1;
    return 0;
}}
fn hash_bytes(key, len) {{
    var h = 5381;
    for (var i = 0; i < len; i = i + 1) {{
        h = (h * 33 + load8(key, i)) & 0xffffff;
    }}
    return h;
}}
fn main() {{
    var n = input();
    srnd(42);
    var nbuckets = 256;
    var buckets = calloc(nbuckets, 8);
    var keybuf = malloc(16);
    chk = 0;
    var step = 0;
    // Anti-idiom: a biased view of a scratch table (1 site). The bias
    // crosses the allocation base, so base(view) resolves to the wrong
    // object -- the paper's Problem #2.
    var scratch = malloc(16 * 8);
    var one_based = scratch - 64;
    for (var i = 0; i < 16; i = i + 1) {{ scratch[i] = i; }}
    while (step < n) {{
        // Build a pseudo-random 8-byte key.
        var klen = 4 + (rnd() % 4);
        for (var i = 0; i < klen; i = i + 1) {{
            store8(keybuf, i, 97 + (rnd() % 26));
        }}
        var h = hash_bytes(keybuf, klen) % nbuckets;
        // Insert: node = [next, hash, value].
        var node = malloc(3 * 8);
        node[0] = buckets[h];
        node[1] = h;
        node[2] = step;
        buckets[h] = node;
        // Lookup walk.
        var cur = buckets[rnd() % nbuckets];
        while (cur != 0) {{
            chk = chk + cur[2];
            cur = cur[0];
        }}
        chk = chk + one_based[8 + (step % 8)];
        // Op-mix counters through the static table (constant base
        // address in a register, constant indices).
        var st = &opstat;
        st[0] = st[0] + 1;
        st[1] = st[1] + klen;
        // Key-length histogram: the bucket index flows out of a call,
        // which every pass treats as unknown, so the store stays checked.
        cbump(h + klen);
        step = step + 1;
    }}
    var st2 = &opstat;
    print(st2[0] + st2[1]);
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    let mut wl = w("perlbench", Lang::C, src, vec![150], vec![2600]);
    wl.anti_idiom_sites = 1;
    wl
}

/// `401.bzip2`: run-length + move-to-front coding over a byte buffer.
fn bzip2() -> Workload {
    let src = format!(
        "{PRELUDE}
global opstat[4];
fn opcount(k) {{
    var st = &opstat;
    st[0] = st[0] + 1;
    st[1] = st[1] + k;
    return st[0] + st[1];
}}
global cstat[8];
fn classify(x) {{
    return x & 7;
}}
fn cbump(x) {{
    var ci = classify(x);
    var cst = &cstat;
    cst[ci] = cst[ci] + 1;
    return 0;
}}
fn main() {{
    var n = input();
    srnd(7);
    var data = malloc(n);
    var out = malloc(2 * n + 16);
    var mtf = malloc(256);
    // Compressible data: long runs with noise.
    var v = 0;
    for (var i = 0; i < n; i = i + 1) {{
        if (rnd() % 13 == 0) {{ v = rnd() % 8; }}
        store8(data, i, v);
    }}
    for (var i = 0; i < 256; i = i + 1) {{ store8(mtf, i, i); }}
    // RLE encode with MTF of the run symbol.
    var o = 0;
    var i = 0;
    while (i < n) {{
        var sym = load8(data, i);
        var run = 1;
        while (i + run < n && load8(data, i + run) == sym && run < 255) {{
            run = run + 1;
        }}
        // Move-to-front rank of sym.
        var r = 0;
        while (load8(mtf, r) != sym) {{ r = r + 1; }}
        var j = r;
        while (j > 0) {{ store8(mtf, j, load8(mtf, j - 1)); j = j - 1; }}
        store8(mtf, 0, sym);
        store8(out, o, r);
        store8(out, o + 1, run);
        o = o + 2;
        opcount(run);
        cbump(r + run);
        i = i + run;
    }}
    // Checksum of the encoding.
    var chk = 0;
    for (var k = 0; k < o; k = k + 1) {{ chk = (chk * 31 + load8(out, k)) & 0xffffff; }}
    print(chk);
    print(o);
    print(opcount(0));
    return 0;
}}"
    );
    w("bzip2", Lang::C, src, vec![2500], vec![26000])
}

/// `403.gcc`: IR node allocation, constant folding, liveness-ish sweep.
/// Carries 14 anti-idiom sites (the paper reports 14 false positives).
fn gcc() -> Workload {
    let anti = anti_idiom_reads("onebase", 4, 14);
    let src = format!(
        "{PRELUDE}
global chk;
global opstat[4];
fn opcount(k) {{
    var st = &opstat;
    st[0] = st[0] + 1;
    st[1] = st[1] + k;
    return st[0] + st[1];
}}
fn fold(node) {{
    // node = [op, lhs, rhs, value]; fold constants upward.
    if (node[0] == 0) {{ return node[3]; }}
    var l = fold(node[1]);
    var r = fold(node[2]);
    if (node[0] == 1) {{ node[3] = l + r; }}
    if (node[0] == 2) {{ node[3] = l * r; }}
    if (node[0] == 3) {{ node[3] = l - r; }}
    node[0] = 0;
    return node[3];
}}
fn build(depth) {{
    var node = malloc(4 * 8);
    if (depth == 0) {{
        node[0] = 0;
        node[1] = 0;
        node[2] = 0;
        node[3] = rnd() % 100;
        return node;
    }}
    node[0] = 1 + (rnd() % 3);
    node[1] = build(depth - 1);
    node[2] = build(depth - 1);
    node[3] = 0;
    return node;
}}
global cstat[8];
fn classify(x) {{
    return x & 7;
}}
fn cbump(x) {{
    var ci = classify(x);
    var cst = &cstat;
    cst[ci] = cst[ci] + 1;
    return 0;
}}
fn main() {{
    var n = input();
    srnd(4003);
    chk = 0;
    var tbl = malloc(16 * 8);
    for (var i = 0; i < 16; i = i + 1) {{ tbl[i] = i * 3; }}
    var onebase = tbl - 32; // 4-element bias
    var step = 0;
    while (step < n) {{
        var tree = build(6);
        chk = (chk + fold(tree)) & 0xffffffff;
{anti}
        opcount(step);
        cbump(chk);
        step = step + 1;
    }}
    print(opcount(0));
    print(chk);
    return 0;
}}"
    );
    let mut wl = w("gcc", Lang::C, src, vec![60], vec![700]);
    wl.anti_idiom_sites = 14;
    wl
}

/// `429.mcf`: pointer-chasing shortest-path relaxation over a sparse
/// network (cache-hostile, like the original).
fn mcf() -> Workload {
    let src = format!(
        "{PRELUDE}
global opstat[4];
fn opcount(k) {{
    var st = &opstat;
    st[0] = st[0] + 1;
    st[1] = st[1] + k;
    return st[0] + st[1];
}}
global cstat[8];
fn classify(x) {{
    return x & 7;
}}
fn cbump(x) {{
    var ci = classify(x);
    var cst = &cstat;
    cst[ci] = cst[ci] + 1;
    return 0;
}}
fn main() {{
    var n = input();
    srnd(429);
    var nodes = n;
    // node = [dist, deg, a0, a1, a2, c0, c1, c2]
    var g = malloc(nodes * 8 * 8);
    for (var i = 0; i < nodes; i = i + 1) {{
        g[i * 8] = 0x3fffffff;
        var deg = 1 + (rnd() % 3);
        g[i * 8 + 1] = deg;
        for (var e = 0; e < deg; e = e + 1) {{
            g[i * 8 + 2 + e] = rnd() % nodes;
            g[i * 8 + 5 + e] = 1 + (rnd() % 9);
        }}
    }}
    g[0] = 0;
    // Bellman-Ford-style passes.
    for (var pass = 0; pass < 12; pass = pass + 1) {{
        for (var i = 0; i < nodes; i = i + 1) {{
            var node = g + i * 64;
            var d = node[0];
            opcount(d);
            cbump(d);
            if (d < 0x3fffffff) {{
                var deg = node[1];
                for (var e = 0; e < deg; e = e + 1) {{
                    var t = node[e + 2];
                    var c = node[e + 5];
                    if (d + c < g[t * 8]) {{ g[t * 8] = d + c; }}
                }}
            }}
        }}
    }}
    var chk = 0;
    for (var i = 0; i < nodes; i = i + 1) {{
        var d = g[i * 8];
        if (d < 0x3fffffff) {{ chk = chk + d; }}
    }}
    print(opcount(0));
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    w("mcf", Lang::C, src, vec![300], vec![3200])
}

/// `445.gobmk`: board scans and liberty counting on a 19x19 goban.
fn gobmk() -> Workload {
    let src = format!(
        "{PRELUDE}
global chk;
global opstat[4];
fn opcount(k) {{
    var st = &opstat;
    st[0] = st[0] + 1;
    st[1] = st[1] + k;
    return st[0] + st[1];
}}
fn liberties(board, pos) {{
    var libs = 0;
    if (board[pos - 1] == 0) {{ libs = libs + 1; }}
    if (board[pos + 1] == 0) {{ libs = libs + 1; }}
    if (board[pos - 21] == 0) {{ libs = libs + 1; }}
    if (board[pos + 21] == 0) {{ libs = libs + 1; }}
    return libs;
}}
global cstat[8];
fn classify(x) {{
    return x & 7;
}}
fn cbump(x) {{
    var ci = classify(x);
    var cst = &cstat;
    cst[ci] = cst[ci] + 1;
    return 0;
}}
fn main() {{
    var n = input();
    srnd(445);
    // 21x21 board with border ring (sentinel 3).
    var board = malloc(21 * 21 * 8);
    for (var i = 0; i < 441; i = i + 1) {{ board[i] = 0; }}
    for (var i = 0; i < 21; i = i + 1) {{
        board[i] = 3;
        board[441 - 21 + i] = 3;
        board[i * 21] = 3;
        board[i * 21 + 20] = 3;
    }}
    // Anti-idiom: biased pattern-table view (1 site).
    var pat = malloc(16 * 8);
    for (var i = 0; i < 16; i = i + 1) {{ pat[i] = i ^ 5; }}
    var pat1 = pat - 64;
    chk = 0;
    for (var mv = 0; mv < n; mv = mv + 1) {{
        var pos = 22 + (rnd() % 19) * 21 + (rnd() % 19);
        var color = 1 + (mv % 2);
        opcount(pos);
        cbump(pos);
        if (board[pos] == 0) {{
            board[pos] = color;
            var l = liberties(board, pos);
            if (l == 0) {{ board[pos] = 0; }}
            chk = chk + l + pat1[8 + (pos % 8)];
        }}
        // Periodic full-board scan.
        if (mv % 64 == 0) {{
            for (var p = 22; p < 419; p = p + 1) {{
                if (board[p] == 1) {{ chk = chk + liberties(board, p); }}
            }}
        }}
    }}
    print(opcount(0));
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    let mut wl = w("gobmk", Lang::C, src, vec![600], vec![8000]);
    wl.anti_idiom_sites = 1;
    wl
}

/// `456.hmmer`: profile-HMM Viterbi DP. The `ref` run scores against a
/// second profile whose scoring loops never run in `train`, so roughly
/// half the hot sites miss the allow-list (low coverage, as in Table 1).
fn hmmer() -> Workload {
    let src = format!(
        "{PRELUDE}
global chk;
global opstat[4];
fn opcount(k) {{
    var st = &opstat;
    st[0] = st[0] + 1;
    st[1] = st[1] + k;
    return st[0] + st[1];
}}
fn score(seq, slen, hmm, m) {{
    var vit = malloc((m + 1) * 8);
    var nxt = malloc((m + 1) * 8);
    for (var k = 0; k <= m; k = k + 1) {{ vit[k] = 0 - 100000; }}
    vit[0] = 0;
    for (var i = 0; i < slen; i = i + 1) {{
        var c = load8(seq, i);
        for (var k = 1; k <= m; k = k + 1) {{
            var match = vit[k - 1] + hmm[(k - 1) * 4 + (c % 4)];
            var ins = vit[k] - 3;
            var best = match;
            if (ins > best) {{ best = ins; }}
            nxt[k] = best;
        }}
        nxt[0] = 0;
        var tmp = vit; vit = nxt; nxt = tmp;
    }}
    var best = vit[m];
    free(vit);
    free(nxt);
    return best;
}}
fn score2(seq, slen, hmm, m) {{
    // Second profile: same structure, distinct instructions (only
    // reached in ref mode).
    var vit = malloc((m + 1) * 8);
    for (var k = 0; k <= m; k = k + 1) {{ vit[k] = 0; }}
    for (var i = 0; i < slen; i = i + 1) {{
        var c = load8(seq, i);
        for (var k = m; k >= 1; k = k - 1) {{
            vit[k] = vit[k - 1] + hmm[(k - 1) * 4 + ((c + i) % 4)];
        }}
    }}
    var best = vit[m];
    free(vit);
    return best;
}}
global cstat[8];
fn classify(x) {{
    return x & 7;
}}
fn cbump(x) {{
    var ci = classify(x);
    var cst = &cstat;
    cst[ci] = cst[ci] + 1;
    return 0;
}}
fn main() {{
    var n = input();
    var mode = input();
    srnd(456);
    var m = 24;
    var hmm = malloc(m * 4 * 8);
    for (var i = 0; i < m * 4; i = i + 1) {{ hmm[i] = (rnd() % 11) - 4; }}
    var seq = malloc(64);
    chk = 0;
    for (var it = 0; it < n; it = it + 1) {{
        var slen = 24 + (rnd() % 32);
        for (var i = 0; i < slen; i = i + 1) {{ store8(seq, i, rnd() % 20); }}
        chk = chk + score(seq, slen, hmm, m);
        if (mode > 0) {{
            chk = chk + score2(seq, slen, hmm, m);
        }}
        opcount(slen);
        cbump(chk);
    }}
    print(opcount(0));
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    w("hmmer", Lang::C, src, vec![6, 0], vec![42, 1])
}

/// `458.sjeng`: game-tree search (negamax with simple evaluation).
fn sjeng() -> Workload {
    let src = format!(
        "{PRELUDE}
global nodes;
global opstat[4];
fn opcount(k) {{
    var st = &opstat;
    st[0] = st[0] + 1;
    st[1] = st[1] + k;
    return st[0] + st[1];
}}
fn eval(board) {{
    var s = 0;
    for (var i = 0; i < 16; i = i + 1) {{ s = s + board[i] * ((i & 3) - 1); }}
    return s;
}}
fn negamax(board, depth, color) {{
    nodes = nodes + 1;
    if (depth == 0) {{ return color * eval(board); }}
    var best = 0 - 1000000;
    for (var mv = 0; mv < 6; mv = mv + 1) {{
        var cell = (mv * 5 + depth) % 16;
        var save = board[cell];
        board[cell] = color;
        var v = 0 - negamax(board, depth - 1, 0 - color);
        board[cell] = save;
        if (v > best) {{ best = v; }}
    }}
    return best;
}}
global cstat[8];
fn classify(x) {{
    return x & 7;
}}
fn cbump(x) {{
    var ci = classify(x);
    var cst = &cstat;
    cst[ci] = cst[ci] + 1;
    return 0;
}}
fn main() {{
    var n = input();
    srnd(458);
    var board = malloc(16 * 8);
    nodes = 0;
    var chk = 0;
    for (var g = 0; g < n; g = g + 1) {{
        for (var i = 0; i < 16; i = i + 1) {{ board[i] = rnd() % 3; }}
        chk = chk + negamax(board, 4, 1);
        opcount(g);
        cbump(chk);
    }}
    print(chk & 0xffffffff);
    print(nodes);
    print(opcount(0));
    return 0;
}}"
    );
    w("sjeng", Lang::C, src, vec![1], vec![6])
}

/// `462.libquantum`: uniform sweeps over a quantum register array
/// (100% coverage: every hot site is exercised by train).
fn libquantum() -> Workload {
    let src = format!(
        "{PRELUDE}
global opstat[4];
fn opcount(k) {{
    var st = &opstat;
    st[0] = st[0] + 1;
    st[1] = st[1] + k;
    return st[0] + st[1];
}}
global cstat[8];
fn classify(x) {{
    return x & 7;
}}
fn cbump(x) {{
    var ci = classify(x);
    var cst = &cstat;
    cst[ci] = cst[ci] + 1;
    return 0;
}}
fn main() {{
    var n = input();
    srnd(462);
    var qubits = 10;
    var states = 1 << qubits;
    // state = [amp_re, amp_im] interleaved.
    var reg = malloc(states * 2 * 8);
    for (var i = 0; i < states; i = i + 1) {{
        reg[i * 2] = rnd() % 1000;
        reg[i * 2 + 1] = rnd() % 1000;
    }}
    for (var it = 0; it < n; it = it + 1) {{
        var target = it % qubits;
        var mask = 1 << target;
        opcount(mask);
        cbump(mask);
        // \"Hadamard-ish\" butterfly on integer amplitudes.
        for (var i = 0; i < states; i = i + 1) {{
            if ((i & mask) == 0) {{
                var j = i | mask;
                var ar = reg[i * 2];
                var br = reg[j * 2];
                reg[i * 2] = (ar + br) / 2;
                reg[j * 2] = (ar - br) / 2;
                var ai = reg[i * 2 + 1];
                var bi = reg[j * 2 + 1];
                reg[i * 2 + 1] = (ai + bi) / 2;
                reg[j * 2 + 1] = (ai - bi) / 2;
            }}
        }}
    }}
    var chk = 0;
    for (var i = 0; i < states; i = i + 1) {{ chk = chk + reg[i * 2] + reg[i * 2 + 1]; }}
    print(opcount(0));
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    w("libquantum", Lang::C, src, vec![10], vec![80])
}

/// `464.h264ref`: block motion search. `train` runs integer-pel search
/// only; `ref` adds four interpolation/refinement passes, so most hot
/// sites are unseen at profile time (lowest coverage in Table 1).
fn h264ref() -> Workload {
    let src = format!(
        "{PRELUDE}
global chk;
global opstat[4];
fn opcount(k) {{
    var st = &opstat;
    st[0] = st[0] + 1;
    st[1] = st[1] + k;
    return st[0] + st[1];
}}
fn sad(frame, refp, w, bx, by) {{
    // refp is the displaced reference-frame pointer (refframe + dy*w+dx).
    var s = 0;
    for (var y = 0; y < 8; y = y + 1) {{
        for (var x = 0; x < 8; x = x + 1) {{
            var a = load8(frame, (by + y) * w + bx + x);
            var b = load8(refp, (by + y) * w + bx + x);
            var d = a - b;
            if (d < 0) {{ d = 0 - d; }}
            s = s + d;
        }}
    }}
    return s;
}}
fn halfpel(frame, refframe, w, bx, by) {{
    var s = 0;
    for (var y = 0; y < 8; y = y + 1) {{
        for (var x = 0; x < 8; x = x + 1) {{
            var a = load8(refframe, (by + y) * w + bx + x);
            var b = load8(refframe, (by + y) * w + bx + x + 1);
            var c = load8(refframe, (by + y + 1) * w + bx + x);
            var m = (a + b + c + load8(frame, (by + y) * w + bx + x)) / 4;
            s = s + m;
        }}
    }}
    return s;
}}
fn quarterpel(frame, refframe, w, bx, by) {{
    var s = 0;
    for (var y = 0; y < 8; y = y + 1) {{
        for (var x = 0; x < 8; x = x + 1) {{
            var a = load8(refframe, (by + y) * w + bx + x);
            var b = load8(frame, (by + y) * w + bx + x);
            s = s + (3 * a + b + 2) / 4;
        }}
    }}
    return s;
}}
fn deblock(frame, w, bx, by) {{
    var s = 0;
    for (var y = 0; y < 8; y = y + 1) {{
        var p = load8(frame, (by + y) * w + bx);
        var q = load8(frame, (by + y) * w + bx + 1);
        store8(frame, (by + y) * w + bx, (p * 3 + q) / 4);
        s = s + p - q;
    }}
    return s;
}}
global cstat[8];
fn classify(x) {{
    return x & 7;
}}
fn cbump(x) {{
    var ci = classify(x);
    var cst = &cstat;
    cst[ci] = cst[ci] + 1;
    return 0;
}}
fn main() {{
    var n = input();
    var mode = input();
    srnd(464);
    var width = 64;
    var height = 48;
    var frame = malloc(width * height);
    var refframe = malloc(width * height);
    for (var i = 0; i < width * height; i = i + 1) {{
        store8(frame, i, rnd() % 256);
        store8(refframe, i, rnd() % 256);
    }}
    chk = 0;
    for (var it = 0; it < n; it = it + 1) {{
        var bx = 8 + (rnd() % (width - 24));
        var by = 8 + (rnd() % (height - 24));
        var best = 0x7fffffff;
        for (var dy = 0 - 2; dy <= 2; dy = dy + 1) {{
            for (var dx = 0 - 2; dx <= 2; dx = dx + 1) {{
                var s = sad(frame, refframe + dy * width + dx, width, bx, by);
                if (s < best) {{ best = s; }}
            }}
        }}
        chk = chk + best;
        opcount(best);
        cbump(best);
        if (mode > 0) {{
            chk = chk + halfpel(frame, refframe, width, bx, by);
            chk = chk + quarterpel(frame, refframe, width, bx, by);
            chk = chk + deblock(frame, width, bx, by);
        }}
    }}
    print(opcount(0));
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    w("h264ref", Lang::C, src, vec![9, 0], vec![64, 1])
}

/// `471.omnetpp`: discrete-event simulation on a binary-heap queue.
fn omnetpp() -> Workload {
    let src = format!(
        "{PRELUDE}
fn main() {{
    var n = input();
    srnd(471);
    var cap = 4096;
    var heap = malloc(cap * 2 * 8); // (time, payload) pairs
    var size = 0;
    var now = 0;
    var chk = 0;
    // Seed events.
    for (var i = 0; i < 64; i = i + 1) {{
        heap[size * 2] = rnd() % 1000;
        heap[size * 2 + 1] = i;
        size = size + 1;
        var c = size - 1;
        while (c > 0 && heap[((c - 1) / 2) * 2] > heap[c * 2]) {{
            var p = (c - 1) / 2;
            var t = heap[p * 2]; heap[p * 2] = heap[c * 2]; heap[c * 2] = t;
            t = heap[p * 2 + 1]; heap[p * 2 + 1] = heap[c * 2 + 1]; heap[c * 2 + 1] = t;
            c = p;
        }}
    }}
    for (var ev = 0; ev < n && size > 0; ev = ev + 1) {{
        // Pop min.
        now = heap[0];
        chk = chk + now + heap[1];
        size = size - 1;
        heap[0] = heap[size * 2];
        heap[1] = heap[size * 2 + 1];
        var c = 0;
        while (1) {{
            var l = c * 2 + 1;
            var r = c * 2 + 2;
            var m = c;
            if (l < size && heap[l * 2] < heap[m * 2]) {{ m = l; }}
            if (r < size && heap[r * 2] < heap[m * 2]) {{ m = r; }}
            if (m == c) {{ break; }}
            var t = heap[m * 2]; heap[m * 2] = heap[c * 2]; heap[c * 2] = t;
            t = heap[m * 2 + 1]; heap[m * 2 + 1] = heap[c * 2 + 1]; heap[c * 2 + 1] = t;
            c = m;
        }}
        // Schedule 1-2 follow-ups.
        var spawn = 1 + (rnd() % 2);
        for (var s = 0; s < spawn && size < cap; s = s + 1) {{
            heap[size * 2] = now + 1 + (rnd() % 100);
            heap[size * 2 + 1] = ev;
            size = size + 1;
            var cc = size - 1;
            while (cc > 0 && heap[((cc - 1) / 2) * 2] > heap[cc * 2]) {{
                var p = (cc - 1) / 2;
                var t = heap[p * 2]; heap[p * 2] = heap[cc * 2]; heap[cc * 2] = t;
                t = heap[p * 2 + 1]; heap[p * 2 + 1] = heap[cc * 2 + 1]; heap[cc * 2 + 1] = t;
                cc = p;
            }}
        }}
    }}
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    w("omnetpp", Lang::Cpp, src, vec![550], vec![4200])
}

/// `473.astar`: breadth-first path search over a weighted grid.
fn astar() -> Workload {
    let src = format!(
        "{PRELUDE}
global opstat[4];
fn opcount(k) {{
    var st = &opstat;
    st[0] = st[0] + 1;
    st[1] = st[1] + k;
    return st[0] + st[1];
}}
global cstat[8];
fn classify(x) {{
    return x & 7;
}}
fn cbump(x) {{
    var ci = classify(x);
    var cst = &cstat;
    cst[ci] = cst[ci] + 1;
    return 0;
}}
fn main() {{
    var n = input();
    srnd(473);
    var dim = 48;
    var cells = dim * dim;
    var cost = malloc(cells * 8);
    var dist = malloc(cells * 8);
    var queue = malloc(cells * 2 * 8);
    var chk = 0;
    for (var i = 0; i < cells; i = i + 1) {{ cost[i] = 1 + (rnd() % 9); }}
    for (var trial = 0; trial < n; trial = trial + 1) {{
        for (var i = 0; i < cells; i = i + 1) {{ dist[i] = 0x3fffffff; }}
        var start = rnd() % cells;
        dist[start] = 0;
        var head = 0;
        var tail = 0;
        queue[0] = start;
        tail = 1;
        while (head < tail) {{
            var cur = queue[head];
            head = head + 1;
            opcount(cur);
            cbump(cur);
            var d = dist[cur];
            var x = cur % dim;
            var y = cur / dim;
            // Four neighbors.
            if (x > 0 && d + cost[cur - 1] < dist[cur - 1]) {{
                dist[cur - 1] = d + cost[cur - 1];
                if (tail < cells * 2) {{ queue[tail] = cur - 1; tail = tail + 1; }}
            }}
            if (x < dim - 1 && d + cost[cur + 1] < dist[cur + 1]) {{
                dist[cur + 1] = d + cost[cur + 1];
                if (tail < cells * 2) {{ queue[tail] = cur + 1; tail = tail + 1; }}
            }}
            if (y > 0 && d + cost[cur - dim] < dist[cur - dim]) {{
                dist[cur - dim] = d + cost[cur - dim];
                if (tail < cells * 2) {{ queue[tail] = cur - dim; tail = tail + 1; }}
            }}
            if (y < dim - 1 && d + cost[cur + dim] < dist[cur + dim]) {{
                dist[cur + dim] = d + cost[cur + dim];
                if (tail < cells * 2) {{ queue[tail] = cur + dim; tail = tail + 1; }}
            }}
        }}
        chk = chk + dist[cells - 1];
    }}
    print(opcount(0));
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    w("astar", Lang::Cpp, src, vec![1], vec![5])
}

/// `483.xalancbmk`: array-encoded DOM-ish tree construction and styled
/// traversal (tag matching).
fn xalancbmk() -> Workload {
    let src = format!(
        "{PRELUDE}
global chk;
fn visit(tree, node, depth) {{
    // tree node = [tag, firstchild, sibling, payload].
    if (node == 0) {{ return 0; }}
    var tag = tree[node * 4];
    if (tag == 3) {{ chk = chk + tree[node * 4 + 3]; }}
    if (tag == 5 && depth > 2) {{ chk = chk + depth; }}
    visit(tree, tree[node * 4 + 1], depth + 1);
    visit(tree, tree[node * 4 + 2], depth);
    return 0;
}}
fn main() {{
    var n = input();
    srnd(483);
    var maxnodes = 2048;
    var tree = malloc(maxnodes * 4 * 8);
    var chk0 = 0;
    for (var doc = 0; doc < n; doc = doc + 1) {{
        // Build a random tree in array form.
        var used = 1;
        for (var i = 1; i < maxnodes; i = i + 1) {{
            tree[i * 4] = rnd() % 8;
            tree[i * 4 + 1] = 0;
            tree[i * 4 + 2] = 0;
            tree[i * 4 + 3] = rnd() % 100;
            if (i > 1) {{
                var parent = 1 + (rnd() % (i - 1));
                // Prepend as first child.
                tree[i * 4 + 2] = tree[parent * 4 + 1];
                tree[parent * 4 + 1] = i;
            }}
            used = used + 1;
        }}
        chk = 0;
        visit(tree, 1, 0);
        chk0 = chk0 + chk;
    }}
    print(chk0 & 0xffffffff);
    return 0;
}}"
    );
    w("xalancbmk", Lang::Cpp, src, vec![2], vec![12])
}

/// `433.milc`: 2D lattice gauge-ish sweeps (integer su2 proxy).
fn milc() -> Workload {
    let src = format!(
        "{PRELUDE}
global opstat[4];
fn opcount(k) {{
    var st = &opstat;
    st[0] = st[0] + 1;
    st[1] = st[1] + k;
    return st[0] + st[1];
}}
global cstat[8];
fn classify(x) {{
    return x & 7;
}}
fn cbump(x) {{
    var ci = classify(x);
    var cst = &cstat;
    cst[ci] = cst[ci] + 1;
    return 0;
}}
fn main() {{
    var n = input();
    srnd(433);
    var dim = 48;
    var sites = dim * dim;
    // Each site holds a 2x2 integer matrix (4 values).
    var field = malloc(sites * 4 * 8);
    for (var i = 0; i < sites * 4; i = i + 1) {{ field[i] = (rnd() % 19) - 9; }}
    for (var sweep = 0; sweep < n; sweep = sweep + 1) {{
        for (var s = 0; s < sites; s = s + 1) {{
            // m = field[s] * field[e] + field[south] (2x2 integer),
            // through element pointers.
            opcount(s);
            cbump(s);
            var ap = field + s * 32;
            var bp = field + ((s + 1) % sites) * 32;
            var sp = field + ((s + dim) % sites) * 32;
            var a0 = ap[0];
            var a1 = ap[1];
            var a2 = ap[2];
            var a3 = ap[3];
            var b0 = bp[0];
            var b1 = bp[1];
            var b2 = bp[2];
            var b3 = bp[3];
            ap[0] = (a0 * b0 + a1 * b2 + sp[0]) % 1000;
            ap[1] = (a0 * b1 + a1 * b3 + sp[1]) % 1000;
            ap[2] = (a2 * b0 + a3 * b2 + sp[2]) % 1000;
            ap[3] = (a2 * b1 + a3 * b3 + sp[3]) % 1000;
        }}
    }}
    var chk = 0;
    for (var i = 0; i < sites * 4; i = i + 1) {{ chk = chk + field[i]; }}
    print(opcount(0));
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    w("milc", Lang::C, src, vec![2], vec![9])
}

/// `470.lbm`: lattice-Boltzmann stream/collide over a 1D channel with 9
/// distribution functions (long regular sweeps -- merging heaven).
fn lbm() -> Workload {
    let src = format!(
        "{PRELUDE}
global opstat[4];
fn opcount(k) {{
    var st = &opstat;
    st[0] = st[0] + 1;
    st[1] = st[1] + k;
    return st[0] + st[1];
}}
fn main() {{
    var n = input();
    srnd(470);
    var cells = 4000;
    var f = malloc(cells * 4 * 8);
    var g = malloc(cells * 4 * 8);
    for (var i = 0; i < cells * 4; i = i + 1) {{ f[i] = 100 + (rnd() % 10); }}
    for (var t = 0; t < n; t = t + 1) {{
        for (var c = 1; c < cells - 1; c = c + 1) {{
            // Collide: relax toward local mean; stream left/right.
            // Element pointers, as a strength-reducing compiler emits.
            opcount(c);
            var fp = f + c * 32;
            var gp = g + c * 32;
            var m = (fp[0] + fp[1] + fp[2] + fp[3]) / 4;
            gp[0] = fp[0] + (m - fp[0]) / 2;
            gp[1] = fp[1 - 4] + (m - fp[1]) / 8;
            gp[2] = fp[2 + 4] + (m - fp[2]) / 8;
            gp[3] = m;
        }}
        var tmp = f; f = g; g = tmp;
    }}
    var chk = 0;
    for (var i = 0; i < cells * 4; i = i + 1) {{ chk = chk + f[i]; }}
    print(opcount(0));
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    w("lbm", Lang::C, src, vec![1], vec![7])
}

/// `482.sphinx3`: Gaussian-mixture scoring of feature frames.
fn sphinx3() -> Workload {
    let src = format!(
        "{PRELUDE}
global opstat[4];
fn opcount(k) {{
    var st = &opstat;
    st[0] = st[0] + 1;
    st[1] = st[1] + k;
    return st[0] + st[1];
}}
global cstat[8];
fn classify(x) {{
    return x & 7;
}}
fn cbump(x) {{
    var ci = classify(x);
    var cst = &cstat;
    cst[ci] = cst[ci] + 1;
    return 0;
}}
fn main() {{
    var n = input();
    srnd(482);
    var dims = 13;
    var mixtures = 32;
    var means = malloc(mixtures * dims * 8);
    var vars = malloc(mixtures * dims * 8);
    var feat = malloc(dims * 8);
    for (var i = 0; i < mixtures * dims; i = i + 1) {{
        means[i] = rnd() % 256;
        vars[i] = 1 + (rnd() % 15);
    }}
    var chk = 0;
    for (var frame = 0; frame < n; frame = frame + 1) {{
        for (var d = 0; d < dims; d = d + 1) {{ feat[d] = rnd() % 256; }}
        var best = 0x7fffffff;
        for (var m = 0; m < mixtures; m = m + 1) {{
            var mp = means + m * dims * 8;
            var vp = vars + m * dims * 8;
            var score = 0;
            for (var d = 0; d < dims; d = d + 1) {{
                var diff = feat[d] - mp[d];
                score = score + (diff * diff) / vp[d];
            }}
            if (score < best) {{ best = score; }}
        }}
        chk = chk + best;
        opcount(best);
        cbump(best);
    }}
    print(opcount(0));
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    w("sphinx3", Lang::C, src, vec![30], vec![240])
}

/// `444.namd`: pairwise short-range force loop with a cell list.
fn namd() -> Workload {
    let src = format!(
        "{PRELUDE}
global opstat[4];
fn opcount(k) {{
    var st = &opstat;
    st[0] = st[0] + 1;
    st[1] = st[1] + k;
    return st[0] + st[1];
}}
fn main() {{
    var n = input();
    srnd(444);
    var atoms = 128;
    var pos = malloc(atoms * 3 * 8);
    var force = malloc(atoms * 3 * 8);
    for (var i = 0; i < atoms * 3; i = i + 1) {{ pos[i] = rnd() % 1000; }}
    var chk = 0;
    for (var step = 0; step < n; step = step + 1) {{
        for (var i = 0; i < atoms * 3; i = i + 1) {{ force[i] = 0; }}
        for (var i = 0; i < atoms; i = i + 1) {{
            var pi = pos + i * 24;
            var fi = force + i * 24;
            opcount(i);
            for (var j = i + 1; j < atoms; j = j + 1) {{
                var pj = pos + j * 24;
                var dx = pi[0] - pj[0];
                var dy = pi[1] - pj[1];
                var dz = pi[2] - pj[2];
                var r2 = dx * dx + dy * dy + dz * dz;
                if (r2 < 90000 && r2 > 0) {{
                    var f = 1000000 / r2;
                    var fj = force + j * 24;
                    fi[0] = fi[0] + f * dx / 1000;
                    fj[0] = fj[0] - f * dx / 1000;
                }}
            }}
        }}
        for (var i = 0; i < atoms; i = i + 1) {{
            pos[i * 3] = (pos[i * 3] + force[i * 3] / 100) % 1000;
        }}
        chk = chk + force[0];
    }}
    print(opcount(0));
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    w("namd", Lang::Cpp, src, vec![1], vec![6])
}

/// `447.dealII`: conjugate-gradient iterations on a tridiagonal system.
/// Declares a very large global table so the image's data segment
/// exceeds the modeled Memcheck limit (the paper's NR row).
fn dealii() -> Workload {
    let src = format!(
        "{PRELUDE}
global bigmesh[5000000]; // ~40 MB data segment: Memcheck NR
fn main() {{
    var n = input();
    srnd(447);
    var dim = 600;
    var diag = malloc(dim * 8);
    var off = malloc(dim * 8);
    var x = malloc(dim * 8);
    var r = malloc(dim * 8);
    var p = malloc(dim * 8);
    var ap = malloc(dim * 8);
    for (var i = 0; i < dim; i = i + 1) {{
        diag[i] = 4;
        off[i] = 0 - 1;
        x[i] = 0;
        r[i] = rnd() % 100;
        p[i] = r[i];
    }}
    var chk = 0;
    for (var it = 0; it < n; it = it + 1) {{
        // ap = A * p.
        for (var i = 0; i < dim; i = i + 1) {{
            var v = diag[i] * p[i];
            if (i > 0) {{ v = v + off[i] * p[i - 1]; }}
            if (i < dim - 1) {{ v = v + off[i] * p[i + 1]; }}
            ap[i] = v;
        }}
        var rr = 0;
        var pap = 0;
        for (var i = 0; i < dim; i = i + 1) {{ rr = rr + r[i] * r[i]; pap = pap + p[i] * ap[i]; }}
        if (pap == 0) {{ break; }}
        var alpha = (rr * 16) / pap;
        for (var i = 0; i < dim; i = i + 1) {{
            x[i] = x[i] + (alpha * p[i]) / 16;
            r[i] = r[i] - (alpha * ap[i]) / 16;
        }}
        var rr2 = 0;
        for (var i = 0; i < dim; i = i + 1) {{ rr2 = rr2 + r[i] * r[i]; }}
        if (rr == 0) {{ break; }}
        var beta = (rr2 * 16) / rr;
        for (var i = 0; i < dim; i = i + 1) {{ p[i] = r[i] + (beta * p[i]) / 16; }}
        chk = chk + x[0];
    }}
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    w("dealII", Lang::Cpp, src, vec![5], vec![28])
}

/// `450.soplex`: dense simplex tableau pivots.
fn soplex() -> Workload {
    let src = format!(
        "{PRELUDE}
fn main() {{
    var n = input();
    srnd(450);
    var rows = 40;
    var cols = 56;
    var tab = malloc(rows * cols * 8);
    for (var i = 0; i < rows * cols; i = i + 1) {{ tab[i] = (rnd() % 21) - 10; }}
    var chk = 0;
    for (var it = 0; it < n; it = it + 1) {{
        // Pick pivot: most negative in row 0.
        var pc = 1;
        for (var j = 1; j < cols; j = j + 1) {{
            if (tab[j] < tab[pc]) {{ pc = j; }}
        }}
        var pr = 1 + (it % (rows - 1));
        var pivot = tab[pr * cols + pc];
        if (pivot == 0) {{ pivot = 1; }}
        // Row reduce every other row (integer scaled) through row
        // pointers, as a compiler hoists the row base computations.
        var prow = tab + pr * cols * 8;
        for (var i = 0; i < rows; i = i + 1) {{
            if (i != pr) {{
                var row = tab + i * cols * 8;
                var factor = row[pc];
                for (var j = 0; j < cols; j = j + 1) {{
                    row[j] = row[j] - (factor * prow[j]) / pivot;
                    row[j] = row[j] % 100000;
                }}
            }}
        }}
        chk = chk + tab[pc];
    }}
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    w("soplex", Lang::Cpp, src, vec![6], vec![33])
}

/// `453.povray`: integer ray-sphere intersection over an object grid,
/// with a Newton integer square root. One anti-idiom table.
fn povray() -> Workload {
    let src = format!(
        "{PRELUDE}
global chk;
fn isqrt(v) {{
    if (v <= 0) {{ return 0; }}
    var x = v;
    var y = (x + 1) / 2;
    while (y < x) {{ x = y; y = (x + v / x) / 2; }}
    return x;
}}
fn main() {{
    var n = input();
    srnd(453);
    var nspheres = 64;
    // sphere = [cx, cy, cz, r].
    var sph = malloc(nspheres * 4 * 8);
    for (var i = 0; i < nspheres; i = i + 1) {{
        sph[i * 4] = rnd() % 2000;
        sph[i * 4 + 1] = rnd() % 2000;
        sph[i * 4 + 2] = 500 + (rnd() % 2000);
        sph[i * 4 + 3] = 50 + (rnd() % 200);
    }}
    // Anti-idiom: biased color-table view (1 site).
    var colors = malloc(16 * 8);
    for (var i = 0; i < 16; i = i + 1) {{ colors[i] = i * 17; }}
    var colors1 = colors - 64;
    chk = 0;
    var step = 0;
    for (var ray = 0; ray < n; ray = ray + 1) {{
        var ox = rnd() % 2000;
        var oy = rnd() % 2000;
        var hit = 0;
        var nearest = 0x7fffffff;
        for (var s = 0; s < nspheres; s = s + 1) {{
            var dx = sph[s * 4] - ox;
            var dy = sph[s * 4 + 1] - oy;
            var d2 = dx * dx + dy * dy;
            var r = sph[s * 4 + 3];
            if (d2 <= r * r) {{
                var z = sph[s * 4 + 2] - isqrt(r * r - d2);
                if (z < nearest) {{ nearest = z; hit = s + 1; }}
            }}
        }}
        if (hit > 0) {{
            chk = chk + nearest + colors1[8 + (hit % 8)];
        }}
        step = step + 1;
    }}
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    let mut wl = w("povray", Lang::Cpp, src, vec![200], vec![1400]);
    wl.anti_idiom_sites = 1;
    wl
}

/// `410.bwaves` (Fortran): 3D 7-point stencil over 1-based arrays; the
/// gfortran-style base bias yields 5 anti-idiom sites.
fn bwaves() -> Workload {
    let src = format!(
        "{PRELUDE}
global chk;
fn main() {{
    var n = input();
    srnd(410);
    var d = 14;
    var off = 1 + d + d * d;
    var cells = d * d * d;
    var u0 = malloc(cells * 8);
    var u1 = malloc(cells * 8);
    // Fortran 1-based view: u(1:d,1:d,1:d) lowered as base - stride.
    var f0 = u0 - 8 * off;
    var f1 = u1;
    for (var i = 0; i < cells; i = i + 1) {{ u0[i] = rnd() % 100; }}
    var step = 0;
    for (var t = 0; t < n; t = t + 1) {{
        for (var z = 2; z < d; z = z + 1) {{
            for (var y = 2; y < d; y = y + 1) {{
                for (var x = 2; x < d; x = x + 1) {{
                    var c = x + y * d + z * d * d;
                    // Five anti-idiom accesses through the 1-based view.
                    var acc = f0[c];
                    acc = acc + f0[c + 1];
                    acc = acc + f0[c - 1];
                    acc = acc + f0[c + d];
                    chk = chk + f0[c - d];
                    f1[c - off] = (acc + chk % 3) / 4;
                }}
            }}
        }}
        var tmp = u0; u0 = u1; u1 = tmp;
        f0 = u0 - 8 * off;
        f1 = u1;
        step = step + 1;
    }}
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    let mut wl = w("bwaves", Lang::Fortran, src, vec![3], vec![30]);
    wl.anti_idiom_sites = 5;
    wl
}

/// `416.gamess` (Fortran): quartet integral loops; the `ref` basis set
/// enables a second integral class unseen in training (43% coverage).
fn gamess() -> Workload {
    let src = format!(
        "{PRELUDE}
global chk;
fn eri(bas, i, j, k, l) {{
    var v = bas[i] * bas[j] + bas[k] * bas[l];
    return v % 1000;
}}
fn eri2(bas, zeta, i, j) {{
    var v = bas[i] * zeta[j] - zeta[i] * bas[j];
    var s = 0;
    for (var m = 0; m < 4; m = m + 1) {{ s = s + (v >> m) + zeta[(i + m) % 24]; }}
    return s % 1000;
}}
fn main() {{
    var n = input();
    var mode = input();
    srnd(416);
    var bas = malloc(24 * 8);
    var zeta = malloc(24 * 8);
    for (var i = 0; i < 24; i = i + 1) {{ bas[i] = 1 + (rnd() % 50); zeta[i] = 1 + (rnd() % 9); }}
    chk = 0;
    for (var it = 0; it < n; it = it + 1) {{
        for (var i = 0; i < 24; i = i + 1) {{
            for (var j = 0; j <= i; j = j + 1) {{
                chk = chk + eri(bas, i, j, (i + j) % 24, (i * j) % 24);
                if (mode > 0) {{
                    chk = chk + eri2(bas, zeta, i, j);
                }}
            }}
        }}
    }}
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    w("gamess", Lang::Fortran, src, vec![8, 0], vec![58, 1])
}

/// `434.zeusmp` (Fortran): 2D MHD-ish stencil. Tagged as requiring x87
/// (the documented Valgrind failure). Mode-gated boundary physics keeps
/// coverage low.
fn zeusmp() -> Workload {
    let src = format!(
        "{PRELUDE}
global chk;
fn boundary(v, d) {{
    var s = 0;
    for (var i = 0; i < d; i = i + 1) {{
        v[i] = v[i + d];
        v[(d - 1) * d + i] = v[(d - 2) * d + i];
        s = s + v[i];
    }}
    return s;
}}
fn mhd_corner(v, b, d) {{
    var s = 0;
    for (var i = 1; i < d - 1; i = i + 1) {{
        var c = i * d + i;
        v[c] = (v[c] + b[c] * 2) / 3;
        s = s + v[c];
    }}
    return s;
}}
fn main() {{
    var n = input();
    var mode = input();
    srnd(434);
    var d = 40;
    var v = malloc(d * d * 8);
    var b = malloc(d * d * 8);
    for (var i = 0; i < d * d; i = i + 1) {{ v[i] = rnd() % 100; b[i] = rnd() % 50; }}
    chk = 0;
    for (var t = 0; t < n; t = t + 1) {{
        for (var y = 1; y < d - 1; y = y + 1) {{
            var vr = v + y * d * 8;
            var vu = v + (y - 1) * d * 8;
            var vd = v + (y + 1) * d * 8;
            var br = b + y * d * 8;
            for (var x = 1; x < d - 1; x = x + 1) {{
                vr[x] = (vr[x] * 2 + vr[x - 1] + vr[x + 1] + vu[x] + vd[x] + br[x]) / 7;
            }}
        }}
        if (mode > 0) {{
            chk = chk + boundary(v, d);
            chk = chk + mhd_corner(v, b, d);
        }}
    }}
    for (var i = 0; i < d * d; i = i + 1) {{ chk = chk + v[i]; }}
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    let mut wl = w("zeusmp", Lang::Fortran, src, vec![6, 0], vec![40, 1]);
    wl.requires_x87 = true;
    wl
}

/// `435.gromacs` (Fortran/C): MD inner loops with 1-based neighbor
/// lists: 3 anti-idiom sites.
fn gromacs() -> Workload {
    let src = format!(
        "{PRELUDE}
global chk;
fn main() {{
    var n = input();
    srnd(435);
    var atoms = 128;
    var pos = malloc(atoms * 8);
    var vel = malloc(atoms * 8);
    var nbr = malloc(atoms * 4 * 8);
    // Fortran-style biased views (3 distinct false-positive sites).
    var pos1 = pos - 64;
    var vel1 = vel - 64;
    var nbr1 = nbr - 64;
    for (var i = 0; i < atoms; i = i + 1) {{
        pos[i] = rnd() % 1000;
        vel[i] = (rnd() % 21) - 10;
        for (var k = 0; k < 4; k = k + 1) {{ nbr[i * 4 + k] = rnd() % atoms; }}
    }}
    var step = 0;
    for (var t = 0; t < n; t = t + 1) {{
        for (var i = 0; i < atoms; i = i + 1) {{
            var f = 0;
            for (var k = 0; k < 4; k = k + 1) {{
                var j = nbr[i * 4 + k];
                var dx = pos[i] - pos[j];
                if (dx > 500) {{ dx = dx - 1000; }}
                if (dx < 0 - 500) {{ dx = dx + 1000; }}
                f = f - dx / 16;
            }}
            vel[i] = (vel[i] + f) % 97;
            chk = chk + f;
        }}
        // Three anti-idiom accesses through the biased views.
        chk = chk + pos1[8 + (step % 8)];
        chk = chk + vel1[8 + (step % 8)];
        chk = chk + nbr1[8 + (step % 8)];
        for (var i = 0; i < atoms; i = i + 1) {{
            pos[i] = (pos[i] + vel[i] + 1000) % 1000;
        }}
        step = step + 1;
    }}
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    let mut wl = w("gromacs", Lang::Fortran, src, vec![16], vec![110]);
    wl.anti_idiom_sites = 3;
    wl
}

/// `436.cactusADM` (Fortran/C): 3D grid relaxation with an unrolled
/// inner update (consecutive constant-offset stores: batching/merging
/// material).
fn cactusadm() -> Workload {
    let src = format!(
        "{PRELUDE}
fn main() {{
    var n = input();
    srnd(436);
    var d = 12;
    var cells = d * d * d;
    var g = malloc(cells * 4 * 8);
    for (var i = 0; i < cells * 4; i = i + 1) {{ g[i] = rnd() % 64; }}
    for (var t = 0; t < n; t = t + 1) {{
        for (var z = 1; z < d - 1; z = z + 1) {{
            for (var y = 1; y < d - 1; y = y + 1) {{
                for (var x = 1; x < d - 1; x = x + 1) {{
                    var c = (x + y * d + z * d * d) * 4;
                    var east = c + 4;
                    var west = c - 4;
                    var lap = g[east] + g[west] - 2 * g[c];
                    var p = g + c * 8;
                    // Unrolled 4-component update through one pointer.
                    p[0] = g[c] + lap / 4;
                    p[1] = g[c + 1] + lap / 8;
                    p[2] = g[c + 2] - lap / 8;
                    p[3] = (p[0] + p[1] + p[2]) % 4096;
                }}
            }}
        }}
    }}
    var chk = 0;
    for (var i = 0; i < cells * 4; i = i + 1) {{ chk = chk + g[i]; }}
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    w("cactusADM", Lang::Fortran, src, vec![4], vec![44])
}

/// `437.leslie3d` (Fortran): triple-nested smoothing sweeps.
fn leslie3d() -> Workload {
    let src = format!(
        "{PRELUDE}
fn main() {{
    var n = input();
    srnd(437);
    var d = 16;
    var cells = d * d * d;
    var u = malloc(cells * 8);
    var v = malloc(cells * 8);
    for (var i = 0; i < cells; i = i + 1) {{ u[i] = rnd() % 256; }}
    for (var t = 0; t < n; t = t + 1) {{
        for (var z = 1; z < d - 1; z = z + 1) {{
            for (var y = 1; y < d - 1; y = y + 1) {{
                var rowdown = u + (y - 1) * d * 8 + z * d * d * 8;
                var rowup = u + (y + 1) * d * 8 + z * d * d * 8;
                var rowin = u + y * d * 8 + (z - 1) * d * d * 8;
                var rowout = u + y * d * 8 + (z + 1) * d * d * 8;
                var row = u + y * d * 8 + z * d * d * 8;
                var vrow = v + y * d * 8 + z * d * d * 8;
                for (var x = 1; x < d - 1; x = x + 1) {{
                    vrow[x] = (row[x] * 6 + row[x - 1] + row[x + 1] + rowdown[x]
                            + rowup[x] + rowin[x] + rowout[x]) / 12;
                }}
            }}
        }}
        var tmp = u; u = v; v = tmp;
    }}
    var chk = 0;
    for (var i = 0; i < cells; i = i + 1) {{ chk = chk + u[i]; }}
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    w("leslie3d", Lang::Fortran, src, vec![2], vec![16])
}

/// `454.calculix` (Fortran/C): FEM assembly/solve. Plants the paper's
/// four real `array[-1]` read underflows in `main` (ref-gated) and two
/// anti-idiom sites.
fn calculix() -> Workload {
    let src = format!(
        "{PRELUDE}
global chk;
fn assemble(kmat, dim, e) {{
    var r = e % (dim - 1);
    kmat[r * dim + r] = kmat[r * dim + r] + 4;
    kmat[r * dim + r + 1] = kmat[r * dim + r + 1] - 1;
    kmat[(r + 1) * dim + r] = kmat[(r + 1) * dim + r] - 1;
    return 0;
}}
fn main() {{
    var n = input();
    var mode = input();
    srnd(454);
    var dim = 64;
    var kmat = calloc(dim * dim, 8);
    var f = malloc(dim * 8);
    var x = malloc(dim * 8);
    var one = malloc(16 * 8);
    for (var i = 0; i < 16; i = i + 1) {{ one[i] = i; }}
    var one1 = one - 64; // anti-idiom site carrier
    for (var i = 0; i < dim; i = i + 1) {{ f[i] = rnd() % 100; x[i] = 0; }}
    for (var e = 0; e < n; e = e + 1) {{ assemble(kmat, dim, e); }}
    // Gauss-Seidel sweeps.
    for (var it = 0; it < n / 4 + 4; it = it + 1) {{
        for (var i = 0; i < dim; i = i + 1) {{
            var s = f[i];
            if (i > 0) {{ s = s - kmat[i * dim + i - 1] * x[i - 1]; }}
            if (i < dim - 1) {{ s = s - kmat[i * dim + i + 1] * x[i + 1]; }}
            var dd = kmat[i * dim + i];
            if (dd == 0) {{ dd = 1; }}
            x[i] = s / dd;
        }}
    }}
    chk = 0;
    // Two anti-idiom reads.
    chk = chk + one1[8 + (n % 8)];
    chk = chk + one1[8 + ((n / 2) % 8)];
    if (mode > 0) {{
        // The four real read underflows the paper reports in main():
        // all of the form array[-1].
        chk = chk + f[0 - 1];
        chk = chk + x[0 - 1];
        chk = chk + kmat[0 - 1];
        chk = chk + one[0 - 1];
    }}
    for (var i = 0; i < dim; i = i + 1) {{ chk = chk + x[i]; }}
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    let mut wl = w("calculix", Lang::Fortran, src, vec![260, 0], vec![2800, 1]);
    wl.anti_idiom_sites = 2;
    wl.planted_errors = 4;
    wl
}

/// `459.GemsFDTD` (Fortran): E/H field updates through 1-based views;
/// 32 distinct anti-idiom sites (the largest FP population in §7.1).
fn gemsfdtd() -> Workload {
    let anti = anti_idiom_reads("ez1", 8, 32);
    let src = format!(
        "{PRELUDE}
global chk;
fn main() {{
    var n = input();
    srnd(459);
    var d = 48;
    var cells = d * d;
    var ez = malloc(cells * 8);
    var hx = malloc(cells * 8);
    var hy = malloc(cells * 8);
    var ez1 = ez - 64; // Fortran non-zero-base view
    for (var i = 0; i < cells; i = i + 1) {{ ez[i] = rnd() % 32; }}
    chk = 0;
    var step = 0;
    for (var t = 0; t < n; t = t + 1) {{
        for (var y = 0; y < d - 1; y = y + 1) {{
            var hxr = hx + y * d * 8;
            var hyr = hy + y * d * 8;
            var ezr = ez + y * d * 8;
            var ezd = ez + (y + 1) * d * 8;
            for (var x = 0; x < d - 1; x = x + 1) {{
                hxr[x] = hxr[x] - (ezd[x] - ezr[x]) / 2;
                hyr[x] = hyr[x] + (ezr[x + 1] - ezr[x]) / 2;
            }}
        }}
        for (var y = 1; y < d; y = y + 1) {{
            var hxr = hx + y * d * 8;
            var hxu = hx + (y - 1) * d * 8;
            var hyr = hy + y * d * 8;
            var ezr = ez + y * d * 8;
            for (var x = 1; x < d; x = x + 1) {{
                ezr[x] = ezr[x] + (hyr[x] - hyr[x - 1] - hxr[x] + hxu[x]) / 2;
            }}
        }}
{anti}
        step = step + 1;
    }}
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    let mut wl = w("GemsFDTD", Lang::Fortran, src, vec![2], vec![16]);
    wl.anti_idiom_sites = 32;
    wl
}

/// `465.tonto` (Fortran): Gaussian basis recurrence accumulation.
fn tonto() -> Workload {
    let src = format!(
        "{PRELUDE}
global chk;
fn recurrence(coef, m) {{
    // Three-term integer recurrence over a coefficient table.
    var a = malloc((m + 2) * 8);
    a[0] = 1;
    a[1] = coef[0];
    for (var k = 2; k <= m; k = k + 1) {{
        a[k] = (coef[k % 16] * a[k - 1] + (k - 1) * a[k - 2]) % 100003;
    }}
    var v = a[m];
    free(a);
    return v;
}}
fn main() {{
    var n = input();
    srnd(465);
    var coef = malloc(16 * 8);
    for (var i = 0; i < 16; i = i + 1) {{ coef[i] = 1 + (rnd() % 9); }}
    chk = 0;
    for (var it = 0; it < n; it = it + 1) {{
        chk = chk + recurrence(coef, 8 + (it % 24));
    }}
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    w("tonto", Lang::Fortran, src, vec![300], vec![3300])
}

/// `481.wrf` (Fortran): layered atmosphere stencils with 26 anti-idiom
/// sites (the `fqy(i,k,jp1)` pattern of §7.1) and the paper's one real
/// read overflow in `interp_fcn` (ref-gated).
fn wrf() -> Workload {
    let anti = anti_idiom_reads("fqy", 8, 26);
    let src = format!(
        "{PRELUDE}
global chk;
fn interp_fcn(col, levels, mode) {{
    var s = 0;
    for (var k = 0; k < levels; k = k + 1) {{ s = s + col[k] * (levels - k); }}
    if (mode > 0) {{
        // The real read overflow the paper reports: one past the end.
        s = s + col[levels];
    }}
    return s;
}}
fn main() {{
    var n = input();
    var mode = input();
    srnd(481);
    var nx = 24;
    var nz = 16;
    var grid = malloc(nx * nz * 8);
    var col = malloc(nz * 8);
    var qy = malloc(64 * 8);
    var fqy = qy - 64; // fqy(its:ite,...) lowering: biased base
    for (var i = 0; i < nx * nz; i = i + 1) {{ grid[i] = rnd() % 64; }}
    for (var i = 0; i < 64; i = i + 1) {{ qy[i] = rnd() % 16; }}
    chk = 0;
    var step = 0;
    for (var t = 0; t < n; t = t + 1) {{
        // Vertical advection per column.
        for (var x = 0; x < nx; x = x + 1) {{
            for (var k = 0; k < nz; k = k + 1) {{ col[k] = grid[k * nx + x]; }}
            chk = chk + interp_fcn(col, nz, 0);
            for (var k = 1; k < nz - 1; k = k + 1) {{
                grid[k * nx + x] = (col[k] * 2 + col[k - 1] + col[k + 1]) / 4;
            }}
        }}
{anti}
        step = step + 1;
    }}
    if (mode > 0) {{
        chk = chk + interp_fcn(col, nz, 1);
    }}
    print(chk & 0xffffffff);
    return 0;
}}"
    );
    let mut wl = w("wrf", Lang::Fortran, src, vec![8, 0], vec![80, 1]);
    wl.anti_idiom_sites = 26;
    wl.planted_errors = 1;
    wl
}

/// All 29 Table 1 benchmarks, in the paper's row order.
pub fn all() -> Vec<Workload> {
    vec![
        perlbench(),
        bzip2(),
        gcc(),
        mcf(),
        gobmk(),
        hmmer(),
        sjeng(),
        libquantum(),
        h264ref(),
        omnetpp(),
        astar(),
        xalancbmk(),
        milc(),
        lbm(),
        sphinx3(),
        namd(),
        dealii(),
        soplex(),
        povray(),
        bwaves(),
        gamess(),
        zeusmp(),
        gromacs(),
        cactusadm(),
        leslie3d(),
        calculix(),
        gemsfdtd(),
        tonto(),
        wrf(),
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
