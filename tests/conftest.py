import json
import random
from pathlib import Path

import pytest

from refinery.documents import Corpus, Document, write_documents

WORDS = (
    "data corpus token quality shard language web crawl text line segment "
    "model score level filter clean dedup sample page site archive news "
    "report world market value place house green river stone light"
).split()


def random_text(rng: random.Random, max_lines: int = 8, max_tokens: int = 12) -> str:
    lines = []
    for _ in range(rng.randint(1, max_lines)):
        n = rng.randint(1, max_tokens)
        lines.append(" ".join(rng.choice(WORDS) for _ in range(n)))
    return "\n".join(lines)


def make_doc(rng: random.Random, i: int, lang: str = "eng_Latn", **overrides) -> Document:
    fields = {
        "id": f"doc{i:05d}",
        "lang": lang,
        "text": random_text(rng),
        "collection": rng.choice(["crawl-a", "crawl-b", "crawl-c"]),
        "url": rng.choice(
            [
                None,
                f"https://example{rng.randint(0, 9)}.com/p/{i}",
                f"https://{rng.choice(['en', 'ca', 'fi'])}.wikipedia.org/wiki/{i}",
            ]
        ),
    }
    fields.update(overrides)
    return Document(**fields)


def make_corpus(
    rng: random.Random, n_docs: int, lang: str = "eng_Latn", **overrides
) -> Corpus:
    return Corpus([make_doc(rng, i, lang, **overrides) for i in range(n_docs)], lang)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)


VOLATILE_REPORT_KEYS = {"wall_time_seconds"}


def snapshot_tree(root: Path) -> dict[str, bytes]:
    """Relative path -> bytes for every file under root.

    Run reports are normalized by dropping wall-clock fields so trees can be
    compared for content determinism.
    """
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            for key in VOLATILE_REPORT_KEYS:
                report.pop(key, None)
            data = json.dumps(report, sort_keys=True).encode()
        out[str(path.relative_to(root))] = data
    return out


# Two synthetic languages over disjoint alphabets (a-m vs n-z) so the
# fallback character classifier separates them reliably.
ALPHA_WORDS = (
    "badge cable media beach chalk flame glade image jade camel hedge ideal "
    "label email climb decade fiddle helm acid blame gleam dial lilac micah"
).split()
OMEGA_WORDS = (
    "onto upon turn snow town worn sort spun stun snout sunup syrup tryst "
    "outrun upturn unworn sprout nylon proton runt stony"
).split()

ALPHA_LANG = "aaa_Latn"
OMEGA_LANG = "zzz_Latn"


def _lines(rng, words, n_lines, tokens_per_line):
    return [
        " ".join(rng.choice(words) for _ in range(tokens_per_line))
        for _ in range(n_lines)
    ]


def build_pipeline_fixture(root: Path, rng: random.Random, n_docs: int = 500) -> Path:
    """Synthetic corpus + seeds + config; returns the config path.

    The corpus mixes in-language documents of varying length and quality,
    foreign-language documents (to be rejected by lid), and duplicate
    groups (to be removed by dedup).
    """
    root = Path(root)
    seeds = root / "seeds"
    seeds.mkdir(parents=True, exist_ok=True)
    (seeds / "aaa.txt").write_text(
        " ".join(rng.choice(ALPHA_WORDS) for _ in range(400)), encoding="utf-8"
    )
    (seeds / "zzz.txt").write_text(
        " ".join(rng.choice(OMEGA_WORDS) for _ in range(400)), encoding="utf-8"
    )

    docs = []
    i = 0

    def add(text, lang=ALPHA_LANG, collection=None, url=None):
        nonlocal i
        docs.append(
            Document(
                id=f"fx{i:05d}",
                lang=lang,
                text=text,
                collection=collection or rng.choice(["wide-1", "cc-2024"]),
                url=url,
            )
        )
        i += 1

    hosts = ["example.com", "site.org", "aaa.wikipedia.org", "news.net"]
    n_foreign = n_docs * 3 // 20
    n_dup_groups = n_docs // 20
    n_plain = n_docs - n_foreign - 2 * n_dup_groups

    for _ in range(n_plain):
        tokens_per_line = rng.randint(3, 10)
        n_lines = rng.randint(1, 40)
        lines = _lines(rng, ALPHA_WORDS, n_lines, tokens_per_line)
        if rng.random() < 0.2:  # sprinkle foreign segments to vary the profile
            lines[rng.randrange(len(lines))] = " ".join(
                rng.choice(OMEGA_WORDS) for _ in range(tokens_per_line)
            )
        if rng.random() < 0.1:  # oddity: digit runs
            lines.append(" ".join(str(rng.randrange(10**6)) for _ in range(8)))
        url = f"https://{rng.choice(hosts)}/page/{i}" if rng.random() < 0.8 else None
        add("\n".join(lines), url=url)

    for _ in range(n_dup_groups):  # one duplicated text across two documents
        text = "\n".join(_lines(rng, ALPHA_WORDS, rng.randint(3, 12), 8))
        add(text, collection="wide-1")
        add(text, collection="cc-2024")

    for _ in range(n_foreign):
        add("\n".join(_lines(rng, OMEGA_WORDS, rng.randint(2, 10), 6)), lang=OMEGA_LANG)

    rng.shuffle(docs)
    corpus_path = root / "corpus.jsonl"
    write_documents(docs, corpus_path)

    config = {
        "input": "corpus.jsonl",
        "output_root": "out",
        "language": ALPHA_LANG,
        "lid": {
            "seed_texts": {ALPHA_LANG: "seeds/aaa.txt", OMEGA_LANG: "seeds/zzz.txt"}
        },
        "dedup": {"ngram_order": 3, "verify_threshold": 0.8},
        "wds": {"min_length_tokens": 10, "target_length_tokens": 150},
        "packaging": {"max_uncompressed_bytes": 20000, "compression_level": 3},
    }
    config_path = root / "pipeline.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return config_path
