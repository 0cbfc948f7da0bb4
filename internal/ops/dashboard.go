package ops

// dashboardHTML is the whole live dashboard: one page, no external
// assets (a scrape target may be air-gapped). Once a second it polls
// /metricsz, /slowz and /readyz and parses the Prometheus text itself;
// the first script block holds the parser and the quantile rule and
// touches no page state, so it also runs under node. Styling follows
// the repo's dataviz conventions: a single blue series hue (sparklines
// are single-series, so no legend boxes), status colors reserved for the
// readiness badge and never reused for data, light/dark from the same
// ramps via CSS custom properties, text in ink tokens rather than series
// colors, and a table view of every metric so nothing is readable only
// through a chart.
const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>dfcheck ops</title>
<style>
:root {
  --surface: #fcfcfb; --panel: #f4f4f2; --border: #e3e3df;
  --ink: #1a1a19; --ink-2: #55554f; --ink-3: #8a8a82;
  --series: #2a78d6;
  --good: #0ca30c; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --panel: #242422; --border: #3a3a36;
    --ink: #f0f0ec; --ink-2: #b5b5ac; --ink-3: #82827a;
    --series: #3987e5;
    --good: #3fba3f; --critical: #e06c6c;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 16px 20px; background: var(--surface); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 18px; margin: 0 0 2px; font-weight: 650; }
h2 { font-size: 13px; margin: 18px 0 6px; color: var(--ink-2); font-weight: 600;
     text-transform: uppercase; letter-spacing: .04em; }
header { display: flex; align-items: baseline; gap: 12px; flex-wrap: wrap; }
.badge { font-size: 12px; font-weight: 600; padding: 2px 9px; border-radius: 9px; }
.badge.ready    { color: var(--good); border: 1px solid var(--good); }
.badge.notready { color: var(--critical); border: 1px solid var(--critical); }
.muted { color: var(--ink-3); font-size: 12px; }
.tiles { display: grid; grid-template-columns: repeat(auto-fill, minmax(160px,1fr)); gap: 10px; margin-top: 10px; }
.tile { background: var(--panel); border: 1px solid var(--border); border-radius: 8px; padding: 10px 12px; }
.tile .k { font-size: 11px; color: var(--ink-2); text-transform: uppercase; letter-spacing: .03em; }
.tile .v { font-size: 22px; font-weight: 650; font-variant-numeric: tabular-nums; margin-top: 2px; }
.tile .s { font-size: 11px; color: var(--ink-3); margin-top: 1px; }
.charts { display: grid; grid-template-columns: repeat(auto-fit, minmax(280px,1fr)); gap: 10px; }
.chart { background: var(--panel); border: 1px solid var(--border); border-radius: 8px; padding: 10px 12px; }
.chart svg { width: 100%; height: 64px; display: block; }
.chart .readout { font-size: 12px; color: var(--ink-2); min-height: 16px; font-variant-numeric: tabular-nums; }
table { border-collapse: collapse; width: 100%; font-variant-numeric: tabular-nums; }
th, td { text-align: left; padding: 4px 10px 4px 0; border-bottom: 1px solid var(--border); font-size: 13px; }
th { color: var(--ink-2); font-weight: 600; font-size: 12px; }
td.num, th.num { text-align: right; }
code { font-family: ui-monospace, "SF Mono", Menlo, monospace; font-size: 12px; }
details summary { cursor: pointer; color: var(--ink-2); font-size: 13px; margin: 14px 0 6px; }
</style>
</head>
<body>
<header>
  <h1>dfcheck ops</h1>
  <span id="ready" class="badge notready">● connecting…</span>
  <span id="updated" class="muted"></span>
</header>

<div class="tiles" id="tiles"></div>

<h2>Throughput</h2>
<div class="charts">
  <div class="chart"><div class="muted">exprs compared / interval</div>
    <svg id="spark-exprs" viewBox="0 0 300 64" preserveAspectRatio="none"></svg>
    <div class="readout" id="ro-exprs"></div></div>
  <div class="chart"><div class="muted">fact-service queue depth</div>
    <svg id="spark-queue" viewBox="0 0 300 64" preserveAspectRatio="none"></svg>
    <div class="readout" id="ro-queue"></div></div>
</div>

<h2>Latency</h2>
<table id="latency"><thead><tr>
  <th>histogram</th><th class="num">count</th><th class="num">p50</th>
  <th class="num">p95</th><th class="num">p99</th><th class="num">max</th>
</tr></thead><tbody></tbody></table>

<h2>Slow solves</h2>
<table id="slow"><thead><tr>
  <th>hash</th><th>op</th><th class="num">width</th><th class="num">elapsed</th>
  <th>detail</th>
</tr></thead><tbody></tbody></table>

<details><summary>All metrics (table view)</summary>
<table id="all"><thead><tr><th>name</th><th class="num">value</th></tr></thead><tbody></tbody></table>
</details>

<script>
"use strict";
// parseProm reads the text /metricsz serves: counters and gauges by
// series key (family{labels} as printed), and histograms by the same key
// with their _count and their cumulative [le, count] bucket lines in
// order. A bucket line's le label comes last; dropping it gives the key.
function parseProm(text) {
  const types = {}, m = { counters: {}, gauges: {}, histograms: {} };
  for (const ln of text.split("\n")) {
    const t = ln.match(/^# TYPE (\S+) (\S+)$/);
    if (t) { types[t[1]] = t[2]; continue; }
    const s = ln.match(/^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)$/);
    if (!s) continue;
    const [, name, labels = "", v] = s;
    if (types[name] === "counter") { m.counters[name + labels] = Number(v); continue; }
    if (types[name] === "gauge") { m.gauges[name + labels] = Number(v); continue; }
    const h = name.match(/^(.+)_(bucket|count)$/);
    if (!h || types[h[1]] !== "histogram") continue;
    let key = h[1] + labels, le = null;
    if (h[2] === "bucket") {
      const b = labels.match(/^\{(.*?),?le="([^"]*)"\}$/);
      if (!b) continue;
      key = h[1] + (b[1] ? "{" + b[1] + "}" : "");
      le = b[2];
    }
    const hs = m.histograms[key] || (m.histograms[key] = { count: 0, buckets: [] });
    if (le === null) hs.count = Number(v);
    else hs.buckets.push([le, Number(v)]);
  }
  return m;
}

// quantile returns the q-quantile as [ns, atLeast]. ns is the upper edge
// of the bucket that holds the q-quantile's rank: at most twice the
// value, or 1 µs for values below that. The last bucket, [2^36 µs, ∞),
// has no upper edge; a rank there gives its lower edge, the last finite
// le, with atLeast set, which the page shows as a lower bound. q = 1
// gives the top non-empty bucket, which the page shows as max.
function quantile(h, q) {
  if (!h.count) return [0, false];
  const rank = Math.min(Math.floor(q * h.count), h.count - 1);
  let edge = 0;
  for (const [le, n] of h.buckets) {
    if (le === "+Inf") return [edge, true];
    edge = Math.round(Number(le) * 1e9);
    if (n > rank) return [edge, false];
  }
  return [edge, false];
}
</script>
<script>
"use strict";
const hist = { exprs: [], queue: [] };  // last N samples for sparklines
const MAXPTS = 120;
let lastExprs = null;

function fmtDur(ns) {
  if (ns >= 1e9) return (ns/1e9).toFixed(2) + "s";
  if (ns >= 1e6) return (ns/1e6).toFixed(2) + "ms";
  if (ns >= 1e3) return (ns/1e3).toFixed(1) + "µs";
  return ns + "ns";
}
function fmtN(n) { return Number(n).toLocaleString("en-US"); }
function fmtQ([ns, atLeast]) { return (atLeast ? "≥ " : "") + fmtDur(ns); }

function spark(id, roId, pts, fmt) {
  const svg = document.getElementById(id);
  if (!pts.length) { svg.innerHTML = ""; return; }
  const w = 300, h = 64, pad = 3;
  const max = Math.max(1, ...pts), min = Math.min(0, ...pts);
  const x = i => pad + i * (w - 2*pad) / Math.max(1, pts.length - 1);
  const y = v => h - pad - (v - min) * (h - 2*pad) / (max - min || 1);
  const d = pts.map((v,i) => (i ? "L" : "M") + x(i).toFixed(1) + " " + y(v).toFixed(1)).join(" ");
  svg.innerHTML =
    '<path d="' + d + '" fill="none" stroke="var(--series)" stroke-width="2" stroke-linejoin="round"/>' +
    '<circle id="' + id + '-dot" r="3" fill="var(--series)" style="display:none"/>';
  svg.onmousemove = ev => {
    const r = svg.getBoundingClientRect();
    const i = Math.max(0, Math.min(pts.length - 1,
      Math.round((ev.clientX - r.left) / r.width * (pts.length - 1))));
    const dot = document.getElementById(id + "-dot");
    dot.style.display = "";
    dot.setAttribute("cx", x(i)); dot.setAttribute("cy", y(pts[i]));
    document.getElementById(roId).textContent =
      (pts.length - i - 1) + " samples ago: " + fmt(pts[i]);
  };
  svg.onmouseleave = () => {
    document.getElementById(id + "-dot").style.display = "none";
    document.getElementById(roId).textContent = "latest: " + fmt(pts[pts.length-1]);
  };
  document.getElementById(roId).textContent = "latest: " + fmt(pts[pts.length-1]);
}

function tile(k, v, s) {
  return '<div class="tile"><div class="k">' + k + '</div><div class="v">' + v +
         '</div><div class="s">' + (s || "") + '</div></div>';
}

function render(p) {
  const badge = document.getElementById("ready");
  if (p.ready) { badge.className = "badge ready"; badge.textContent = "● ready"; }
  else { badge.className = "badge notready"; badge.textContent = "● " + (p.reason || "not ready"); }
  document.getElementById("updated").textContent =
    "updated " + new Date().toLocaleTimeString();

  const c = p.metrics.counters || {}, g = p.metrics.gauges || {}, hs = p.metrics.histograms || {};

  // Sparkline samples: exprs delta per push, live queue depth.
  const exprs = c["exprs_compared"] || c["factsvc_exprs"] || 0;
  if (lastExprs !== null) hist.exprs.push(Math.max(0, exprs - lastExprs));
  lastExprs = exprs;
  hist.queue.push(g["factsvc_queue_depth"] || 0);
  for (const k of Object.keys(hist)) if (hist[k].length > MAXPTS) hist[k].shift();
  spark("spark-exprs", "ro-exprs", hist.exprs, v => fmtN(v) + " exprs");
  spark("spark-queue", "ro-queue", hist.queue, v => fmtN(v) + " queued");

  let findings = 0, findingsByKind = [];
  for (const [k, v] of Object.entries(c)) {
    const m = k.match(/^campaign_findings\{kind="([^"]+)"\}$/);
    if (m) { findings += v; findingsByKind.push(m[1] + " " + v); }
  }
  const done = g["campaign_batches_done"], total = g["campaign_batches_total"];
  const eta = g["campaign_eta_seconds"];
  const tiles = [
    tile("exprs compared", fmtN(exprs)),
    tile("solver queries", fmtN(c["solver_queries"] || 0)),
    tile("findings", fmtN(findings), findingsByKind.join(" · ") || "none yet"),
    tile("cache hit rate", g["rescache_hit_rate_bp"] != null
      ? (g["rescache_hit_rate_bp"]/100).toFixed(1) + "%" : "–",
      g["rescache_entries"] != null ? fmtN(g["rescache_entries"]) + " entries" : ""),
    tile("queue depth", fmtN(g["factsvc_queue_depth"] || 0),
      "collapsed " + fmtN(c["flight_collapsed"] || 0) +
      " · rejected " + fmtN(c["factsvc_rejected"] || 0)),
  ];
  if (done != null) {
    tiles.push(tile("campaign", total > 0 ? done + " / " + total + " batches" : fmtN(done) + " batches",
      (eta != null && eta >= 0 ? "ETA " + fmtN(eta) + "s · " : "") +
      ((g["campaign_exprs_per_sec_milli"] || 0) / 1000).toFixed(1) + " exprs/s"));
  }
  document.getElementById("tiles").innerHTML = tiles.join("");

  const lt = [];
  for (const [k, v] of Object.entries(hs)) {
    if (!v.count) continue;
    lt.push('<tr><td><code>' + k.replace(/</g,"&lt;") + '</code></td><td class="num">' + fmtN(v.count) +
      '</td><td class="num">' + fmtQ(quantile(v, .5)) + '</td><td class="num">' + fmtQ(quantile(v, .95)) +
      '</td><td class="num">' + fmtQ(quantile(v, .99)) + '</td><td class="num">' + fmtQ(quantile(v, 1)) + '</td></tr>');
  }
  document.querySelector("#latency tbody").innerHTML =
    lt.sort().join("") || '<tr><td colspan="6" class="muted">no observations yet</td></tr>';

  const st = (p.slow || []).map(e =>
    '<tr><td><code>' + e.hash + '</code></td><td>' + e.op + '</td><td class="num">i' + e.width +
    '</td><td class="num">' + fmtDur(e.elapsed_ns) +
    '</td><td class="muted">' + (e.err ? "error: " + e.err + " · " : "") + (e.detail || "") + '</td></tr>');
  document.querySelector("#slow tbody").innerHTML =
    st.join("") || '<tr><td colspan="5" class="muted">no slow solves recorded</td></tr>';

  const rows = [];
  for (const [k, v] of Object.entries(c).concat(Object.entries(g)))
    rows.push([k, fmtN(v)]);
  rows.sort((a, b) => a[0] < b[0] ? -1 : 1);
  document.querySelector("#all tbody").innerHTML = rows.map(r =>
    '<tr><td><code>' + r[0].replace(/</g,"&lt;") + '</code></td><td class="num">' + r[1] + '</td></tr>').join("");
}

async function poll() {
  try {
    const [metrics, slow, ready] = await Promise.all(
      ["/metricsz", "/slowz", "/readyz"].map(u => fetch(u, { cache: "no-store" })));
    const reason = ready.ok ? "" : (await ready.text()).replace(/^not ready: /, "").trim();
    render({ ready: ready.ok, reason: reason, metrics: parseProm(await metrics.text()), slow: await slow.json() });
  } catch (e) {
    const badge = document.getElementById("ready");
    badge.className = "badge notready"; badge.textContent = "● disconnected";
  }
  setTimeout(poll, 1000);
}
poll();
</script>
</body>
</html>
`
