#!/usr/bin/env python3
"""Generate a synthetic demo corpus, classifier seed texts, and a pipeline
config in the given directory, ready for `refinery all --config <dir>/pipeline.json`.

The corpus mixes two artificial "languages" built over disjoint alphabets
(a-m vs n-z) so the built-in fallback classifier separates them, plus
duplicate groups, quality spread, and URL metadata.

``--labels N`` (N >= 2) gives the classifier N labels instead of two: the
corpus stays the same, and each label past the demo's two gets a seed text
over an alphabet drawn from the letters of one of several scripts, so lid's
cost can be measured at a large label inventory without a download.
"""

import argparse
import json
import random
import unicodedata
from pathlib import Path

from refinery.documents import Document, write_documents

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

# (ISO 15924 code, first and last code point): the scripts that synthetic
# labels cycle through, each label taking an alphabet from its script's range.
SCRIPTS = [
    ("Grek", 0x03B1, 0x03C9),
    ("Cyrl", 0x0430, 0x044F),
    ("Armn", 0x0561, 0x0586),
    ("Hebr", 0x05D0, 0x05EA),
    ("Arab", 0x0627, 0x064A),
    ("Deva", 0x0905, 0x0939),
    ("Thai", 0x0E01, 0x0E2E),
    ("Geor", 0x10D0, 0x10F0),
    ("Hira", 0x3041, 0x3096),
    ("Hang", 0xAC00, 0xD7A3),
    ("Latn", 0x00E0, 0x00FF),
]

HOSTS = [
    "example.com",
    "site.org",
    "aaa.wikipedia.org",
    "news.net",
    "shop.example.no",
]


def lines_of(rng, words, n_lines, tokens):
    return [
        " ".join(rng.choice(words) for _ in range(tokens)) for _ in range(n_lines)
    ]


def _letters(first: int, last: int) -> list[str]:
    """The lowercase letters in [first, last] that LID normalization keeps."""
    chars = (chr(c) for c in range(first, last + 1))
    return [c for c in chars if unicodedata.category(c) in ("Ll", "Lo") and c.lower() == c]


def synthetic_seed_texts(n_labels: int, seed: int) -> dict[str, str]:
    """Seed texts for ``n_labels`` synthetic labels, named ``s<index>_<script>``
    and cycling through SCRIPTS; labels of one script share its letters."""
    rng = random.Random(f"labels-{seed}")  # apart from the corpus's generator
    texts = {}
    for index in range(n_labels):
        code, first, last = SCRIPTS[index % len(SCRIPTS)]
        alphabet = rng.sample(_letters(first, last), 12)
        words = ["".join(rng.choices(alphabet, k=rng.randint(3, 8))) for _ in range(24)]
        texts[f"s{index:03d}_{code}"] = " ".join(rng.choice(words) for _ in range(500))
    return texts


def build(out_dir: Path, n_docs: int, seed: int, n_labels: int = 2) -> Path:
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = out_dir / "seeds"
    seeds.mkdir(exist_ok=True)
    (seeds / "aaa.txt").write_text(
        " ".join(rng.choice(ALPHA_WORDS) for _ in range(500)), encoding="utf-8"
    )
    (seeds / "zzz.txt").write_text(
        " ".join(rng.choice(OMEGA_WORDS) for _ in range(500)), encoding="utf-8"
    )

    docs = []
    n_foreign = n_docs * 3 // 20
    n_dup_groups = n_docs // 20
    n_plain = n_docs - n_foreign - 2 * n_dup_groups

    def add(text, lang=ALPHA_LANG, collection=None, url=None):
        docs.append(
            Document(
                id=f"demo{len(docs):06d}",
                lang=lang,
                text=text,
                collection=collection or rng.choice(["wide-1", "cc-2024"]),
                url=url,
            )
        )

    for _ in range(n_plain):
        body = lines_of(rng, ALPHA_WORDS, rng.randint(1, 40), rng.randint(3, 10))
        if rng.random() < 0.2:
            body[rng.randrange(len(body))] = " ".join(
                rng.choice(OMEGA_WORDS) for _ in range(6)
            )
        if rng.random() < 0.1:
            body.append(" ".join(str(rng.randrange(10**6)) for _ in range(8)))
        url = None
        if rng.random() < 0.8:
            url = f"https://{rng.choice(HOSTS)}/page/{len(docs)}"
        add("\n".join(body), url=url)

    for _ in range(n_dup_groups):
        text = "\n".join(lines_of(rng, ALPHA_WORDS, rng.randint(3, 12), 8))
        add(text, collection="wide-1")
        add(text, collection="cc-2024")

    for _ in range(n_foreign):
        add(
            "\n".join(lines_of(rng, OMEGA_WORDS, rng.randint(2, 10), 6)),
            lang=OMEGA_LANG,
        )

    rng.shuffle(docs)
    write_documents(docs, out_dir / "corpus.jsonl")

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
    for label, text in synthetic_seed_texts(n_labels - 2, seed).items():
        (seeds / f"{label}.txt").write_text(text, encoding="utf-8")
        config["lid"]["seed_texts"][label] = f"seeds/{label}.txt"
    config_path = out_dir / "pipeline.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return config_path


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--docs", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--labels", type=int, default=2,
                        help="classifier labels, the demo's two included (default 2)")
    args = parser.parse_args()
    if args.labels < 2:
        parser.error("--labels must be at least 2")
    config_path = build(args.out_dir, args.docs, args.seed, args.labels)
    print(f"wrote {args.docs} documents and {args.labels} seed texts; "
          f"next: refinery all --config {config_path}")


if __name__ == "__main__":
    main()
