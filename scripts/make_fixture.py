#!/usr/bin/env python3
"""Generate a synthetic demo corpus, classifier seed texts, and a pipeline
config in the given directory, ready for `refinery all --config <dir>/pipeline.json`.

The corpus mixes two artificial "languages" built over disjoint alphabets
(a-m vs n-z) so the built-in fallback classifier separates them, plus
duplicate groups, quality spread, and URL metadata.
"""

import argparse
import json
import random
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


def build(out_dir: Path, n_docs: int, seed: int) -> Path:
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
    config_path = out_dir / "pipeline.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return config_path


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--docs", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    config_path = build(args.out_dir, args.docs, args.seed)
    print(f"wrote {args.docs} documents; next: refinery all --config {config_path}")


if __name__ == "__main__":
    main()
