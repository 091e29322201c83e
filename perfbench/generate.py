"""Seeded input generator for the benchmark workloads.

Each workload directory gets the program's inputs (corpus or grid, seed
texts, a pipeline config) plus ``truth.json``, the ground truth the checker
compares outputs against. The generator uses only the standard library and
the benchmark's own zstd binding, so no change to the program, its scripts
or its tests can change the inputs. Generated configs set no ``workers``:
the default behaviour is what gets measured.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import zcodec

WORKLOADS = ("web-mixed", "web-boilerplate", "eval-grid")

# web-mixed: two artificial languages over disjoint alphabets (a-m, n-z),
# the shape of the repository's demo fixture.
MIXED_LANG = "aaa_Latn"
MIXED_FOREIGN = "zzz_Latn"
MIXED_DOCS = 600
MIXED_WORDS = (
    "acme badge cable decade embed fable gable jackal label bagel camel "
    "deface flick glide hijack image jade kick lilac medal black chalk climb "
    "dial gleam helm ideal mile blame blade dime fade hide bleak field lake"
).split()
MIXED_FOREIGN_WORDS = (
    "onto upon turn snow worn sort spun stun snout sunup syrup tryst outrun "
    "upturn unworn sprout nylon proton runt stony rusty torso sport posy"
).split()
MIXED_HOSTS = ("example.com", "site.org", "aaa.wikipedia.org", "news.net", "shop.example.no")

# web-boilerplate: accented Latin pages against Cyrillic foreign pages.
BOILER_LANG = "spa_Latn"
BOILER_FOREIGN = "ukr_Cyrl"
BOILER_CLUSTERS = 2
BOILER_CLUSTER_SIZE = 120
BOILER_UNIQUE = 120
BOILER_FOREIGN_PAGES = 30
BOILER_SITES = 8
BOILER_WORDS = (
    "de la el que y en los las un una por con para como más pero sus "
    "año años día días también después según económico política público "
    "música canción corazón mañana pájaro árbol región información educación "
    "investigación administración comunicación población situación "
    "período página número último única rápido fácil difícil común "
    "gobierno ciudad país mundo historia cultura empresa servicio producto "
    "artículo opinión técnica ciencia médico salud niño niña señor señora "
    "españa méxico perú bogotá córdoba málaga león ávila cádiz "
    "está están será podrá había tenía quería sabía decía llegó salió "
    "pequeño grande nuevo antiguo próximo último cerca lejos aquí allí "
    "acción atención relación decisión dirección función misión visión "
    "teléfono dirección envío compra precio oferta pedido cuenta sesión"
).split()
BOILER_FOREIGN_WORDS = (
    "і та але що як коли де це цей ця ці той був була було бути не так "
    "місто країна світ історія культура новини погода спорт робота життя "
    "людина люди день рік роки час мова школа родина книга музика пісня "
    "сонце вода земля небо річка море гора ліс поле дорога дім вікно "
    "великий малий новий старий добрий гарний швидкий повільний перший"
).split()

# eval-grid: models x tasks x prompts x checkpoints.
GRID_MODELS = 6
GRID_LANGUAGES = ("fra_Latn", "deu_Latn", "tha_Thai", "swh_Latn")
GRID_CATEGORIES = ("reading", "reasoning", "knowledge")
GRID_KINDS = ("informative",) * 4 + ("flat",) * 2 + ("rank_flip",) * 2 + ("lottery",) * 2
GRID_PROMPTS = 5
GRID_CHECKPOINTS = 10


def _stratified(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """``n`` integers spread evenly over [lo, hi] in random order, so that
    totals, and with them the work, do not drift from seed to seed."""
    values = [lo + (i * (hi - lo + 1)) // n for i in range(n)]
    rng.shuffle(values)
    return values


def _line(rng: random.Random, words: list[str], n_tokens: int) -> str:
    return " ".join(rng.choice(words) for _ in range(n_tokens))


def _lines(rng: random.Random, words: list[str], n_lines: int, lo: int, hi: int) -> list[str]:
    return [_line(rng, words, n) for n in _stratified(rng, n_lines, lo, hi)]


def _dump_jsonl(records: list[dict]) -> bytes:
    return "".join(
        json.dumps(r, ensure_ascii=False, separators=(",", ":")) + "\n" for r in records
    ).encode("utf-8")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")


def _finish_corpus(rng: random.Random, docs: list[dict], prefix: str) -> None:
    """Shuffle, then assign ids in file order so ids reveal nothing."""
    rng.shuffle(docs)
    for i, doc in enumerate(docs):
        doc["id"] = f"{prefix}{i:06d}"


def _record(doc: dict) -> dict:
    out = {"id": doc["id"]}
    if doc.get("url") is not None:
        out["url"] = doc["url"]
    out["collection"] = doc["collection"]
    out["lang"] = doc["lang"]
    out["text"] = doc["text"]
    return out


def _document_truth(docs: list[dict]) -> dict:
    groups: dict[int, list[list[str]]] = {}
    for doc in docs:
        if doc.get("group") is not None:
            groups.setdefault(doc["group"], []).append([doc["collection"], doc["id"]])
    return {
        "foreign": sorted(d["id"] for d in docs if d["kind"] == "foreign"),
        "pure": sorted(d["id"] for d in docs if d["kind"] == "pure"),
        "duplicate_groups": [sorted(g) for _, g in sorted(groups.items())],
    }


def _web_mixed(rng: random.Random, out: Path) -> dict:
    seeds = out / "seeds"
    seeds.mkdir()
    (seeds / "aaa.txt").write_text(_line(rng, MIXED_WORDS, 500), encoding="utf-8")
    (seeds / "zzz.txt").write_text(_line(rng, MIXED_FOREIGN_WORDS, 500), encoding="utf-8")

    n_foreign = MIXED_DOCS * 3 // 20
    n_pairs = MIXED_DOCS // 20
    n_plain = MIXED_DOCS - n_foreign - 2 * n_pairs
    docs: list[dict] = []
    shapes = zip(_stratified(rng, n_plain, 1, 40), _stratified(rng, n_plain, 3, 10))
    for i, (n_lines, n_tokens) in enumerate(shapes):
        body = [_line(rng, MIXED_WORDS, n_tokens) for _ in range(n_lines)]
        kind = "pure"
        if rng.random() < 0.2:
            body[rng.randrange(len(body))] = _line(rng, MIXED_FOREIGN_WORDS, 6)
            kind = "mixed"
        if rng.random() < 0.1:
            body.append(" ".join(str(rng.randrange(10**6)) for _ in range(8)))
        url = f"https://{rng.choice(MIXED_HOSTS)}/page/{i}" if rng.random() < 0.8 else None
        docs.append({"kind": kind, "lang": MIXED_LANG, "text": "\n".join(body), "url": url,
                     "collection": rng.choice(["wide-1", "cc-2024"])})
    for group, n_lines in enumerate(_stratified(rng, n_pairs, 3, 12)):
        text = "\n".join(_lines(rng, MIXED_WORDS, n_lines, 8, 8))
        for collection in ("wide-1", "cc-2024"):
            docs.append({"kind": "pure", "lang": MIXED_LANG, "text": text, "url": None,
                         "collection": collection, "group": group})
    for n_lines in _stratified(rng, n_foreign, 2, 10):
        docs.append({"kind": "foreign", "lang": MIXED_FOREIGN, "url": None,
                     "text": "\n".join(_lines(rng, MIXED_FOREIGN_WORDS, n_lines, 6, 6)),
                     "collection": rng.choice(["wide-1", "cc-2024"])})
    _finish_corpus(rng, docs, "wm")
    (out / "corpus.jsonl").write_bytes(_dump_jsonl([_record(d) for d in docs]))

    config = {
        "input": "corpus.jsonl",
        "output_root": "out",
        "language": MIXED_LANG,
        "lid": {"seed_texts": {MIXED_LANG: "seeds/aaa.txt", MIXED_FOREIGN: "seeds/zzz.txt"}},
        "dedup": {"ngram_order": 3, "verify_threshold": 0.8},
        "wds": {"min_length_tokens": 10, "target_length_tokens": 150},
        "packaging": {"max_uncompressed_bytes": 20000, "compression_level": 3},
    }
    _write_json(out / "pipeline.json", config)
    return {"language": MIXED_LANG, "inputs": ["corpus.jsonl"], "records": len(docs),
            **_document_truth(docs)}


def _site_template(rng: random.Random, words: list[str]) -> tuple[list[str], list[str]]:
    header = _lines(rng, words, 4, 2, 6)
    footer = _lines(rng, words, 2, 4, 8) + [f"© {rng.randint(2015, 2024)} " + _line(rng, words, 3)]
    return header, footer


def _web_boilerplate(rng: random.Random, out: Path) -> dict:
    seeds = out / "seeds"
    seeds.mkdir()
    (seeds / "spa.txt").write_text(_line(rng, BOILER_WORDS, 600), encoding="utf-8")
    (seeds / "ukr.txt").write_text(_line(rng, BOILER_FOREIGN_WORDS, 600), encoding="utf-8")

    sites = [_site_template(rng, BOILER_WORDS) for _ in range(BOILER_SITES)]
    foreign_site = _site_template(rng, BOILER_FOREIGN_WORDS)
    hosts = [f"www.sitio{i}.es" for i in range(BOILER_SITES)]
    collections = ("cc-2023", "cc-2024", "mirror")

    def page(site: int, n_body: int) -> list[str]:
        header, footer = sites[site]
        return header + _lines(rng, BOILER_WORDS, n_body, 4, 11) + footer

    docs: list[dict] = []
    for group in range(BOILER_CLUSTERS):
        site = rng.randrange(BOILER_SITES)
        base = page(site, 25)
        for member in range(BOILER_CLUSTER_SIZE):
            lines = list(base)
            row = rng.randrange(4, len(lines) - 3)
            tokens = lines[row].split()
            tokens[rng.randrange(len(tokens))] = rng.choice(BOILER_WORDS)
            lines[row] = " ".join(tokens)
            docs.append({"kind": "pure", "lang": BOILER_LANG, "text": "\n".join(lines),
                         "url": f"https://espejo{member}.{hosts[site]}/articulo/{group}",
                         "collection": rng.choice(collections), "group": group})
    for i, n_body in enumerate(_stratified(rng, BOILER_UNIQUE, 18, 30)):
        site = rng.randrange(BOILER_SITES)
        lines = page(site, n_body)
        kind = "pure"
        if rng.random() < 0.3:  # a language-switcher line in the other script
            lines.insert(4, _line(rng, BOILER_FOREIGN_WORDS, 4))
            kind = "mixed"
        docs.append({"kind": kind, "lang": BOILER_LANG, "text": "\n".join(lines),
                     "url": f"https://{hosts[site]}/pagina/{i}",
                     "collection": rng.choice(collections)})
    for i, n_body in enumerate(_stratified(rng, BOILER_FOREIGN_PAGES, 15, 30)):
        header, footer = foreign_site
        body = _lines(rng, BOILER_FOREIGN_WORDS, n_body, 5, 12)
        docs.append({"kind": "foreign", "lang": BOILER_FOREIGN, "text": "\n".join(header + body + footer),
                     "url": f"https://novyny.ua/{i}", "collection": rng.choice(collections)})
    _finish_corpus(rng, docs, "bp")
    (out / "corpus.jsonl.zst").write_bytes(
        zcodec.compress(_dump_jsonl([_record(d) for d in docs]), 3)
    )

    config = {
        "input": "corpus.jsonl.zst",
        "output_root": "out",
        "language": BOILER_LANG,
        "lid": {"seed_texts": {BOILER_LANG: "seeds/spa.txt", BOILER_FOREIGN: "seeds/ukr.txt"}},
        "packaging": {"max_uncompressed_bytes": 1000000},
    }
    _write_json(out / "pipeline.json", config)
    return {"language": BOILER_LANG, "inputs": ["corpus.jsonl.zst"], "records": len(docs),
            **_document_truth(docs)}


def _grid_score(rng: random.Random, kind: str, base: float, quality: float,
                checkpoint: int, prompt: int) -> float:
    """One planted score. Informative tasks grow strictly with the checkpoint,
    keep the model order and one best prompt; every other kind breaks one
    selection criterion by construction."""
    span = 1.0 - base
    growth = 0.2 + 0.6 * (checkpoint + 1) / GRID_CHECKPOINTS
    noise = rng.uniform(-0.002, 0.002)
    best = checkpoint % GRID_PROMPTS if kind == "lottery" else 0
    offset = 0.0 if prompt == best else -0.01 * (1 + (prompt - best) % GRID_PROMPTS)
    if kind == "flat":
        return base + span * rng.uniform(-0.01, 0.01)
    if kind == "rank_flip":
        quality = quality if checkpoint % 2 == 0 else 1.1 - quality
        return base + span * (0.5 * quality + offset) + noise
    return base + span * (quality * growth + offset) + noise


def _eval_grid(rng: random.Random, out: Path) -> dict:
    models = [f"model-{chr(ord('a') + i)}" for i in range(GRID_MODELS)]
    qualities = [0.3 + 0.1 * i for i in range(GRID_MODELS)]
    rng.shuffle(qualities)
    quality = dict(zip(models, qualities))

    meta: dict[str, dict] = {}
    kinds: dict[str, str] = {}
    for language in GRID_LANGUAGES:
        task_kinds = list(GRID_KINDS)
        rng.shuffle(task_kinds)
        for i, kind in enumerate(task_kinds):
            name = f"{language.split('_')[0]}_task{i:02d}"
            kinds[name] = kind
            meta[name] = {
                "random_baseline": rng.choice([0.0, 0.25, 0.5]),
                "max_score": 1.0,
                "category": GRID_CATEGORIES[i % len(GRID_CATEGORIES)],
                "language": language,
            }
    rows = []
    for model in models:
        for task in sorted(meta):
            base = meta[task]["random_baseline"]
            for checkpoint in range(GRID_CHECKPOINTS):
                for prompt in range(GRID_PROMPTS):
                    score = _grid_score(rng, kinds[task], base, quality[model], checkpoint, prompt)
                    rows.append({"model": model, "task": task, "prompt": f"p{prompt}",
                                 "checkpoint_tokens": (checkpoint + 1) * 10**9,
                                 "score": round(score, 6)})
    (out / "scores.jsonl").write_bytes(_dump_jsonl(rows))
    _write_json(out / "task_meta.json", meta)
    config = {
        "input": "scores.jsonl",
        "output_root": "out",
        "language": GRID_LANGUAGES[0],
        "eval_agg": {"scores": "scores.jsonl", "task_meta": "task_meta.json"},
    }
    _write_json(out / "pipeline.json", config)
    return {
        "inputs": ["scores.jsonl", "task_meta.json"],
        "records": len(rows),
        "informative": sorted(t for t, k in kinds.items() if k == "informative"),
        "borda_order": sorted(models, key=lambda m: -quality[m]),
    }


_WRITERS = {"web-mixed": _web_mixed, "web-boilerplate": _web_boilerplate, "eval-grid": _eval_grid}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs into the empty or absent directory ``out``.

    Returns the ground truth, which is also written to ``out/truth.json``.
    """
    out.mkdir(parents=True)
    rng = random.Random(f"{workload}:{seed}")
    truth = {"workload": workload, "seed": seed, **_WRITERS[workload](rng, out)}
    _write_json(out / "truth.json", truth)
    return truth
