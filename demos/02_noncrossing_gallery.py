#!/usr/bin/env python3
"""Walk through the noncrossing side: words, matchings, profiles, rotation.

Enumerates the pair partitions adapted to a few small words, prints each
one with its leg profile, demonstrates that turning the positions one
step left around a circle (the cover rotation) carries matchings for the
shift-1 word onto matchings for the base word, and renders every
matching to an SVG file in demos/gallery/.
"""

from pathlib import Path

from fussnarayana.diagrams import write_partition_svg
from fussnarayana.partitions import (
    WordSpec,
    build_word,
    enumerate_adapted,
    leg_profile,
    rotate_cover,
)

OUT_DIR = Path(__file__).resolve().parent / "gallery"


def word_text(word) -> str:
    return " ".join(str(letter) for letter in word)


def gallery(p: int, shift: int, k: int) -> None:
    spec = WordSpec(p, shift, k)
    word = build_word(spec)
    print(f"word (p={p}, shift={shift}, k={k}):  {word_text(word)}")
    for index, pi in enumerate(enumerate_adapted(spec)):
        profile = leg_profile(pi, word)
        print(f"  [{index}] {pi.to_line():<24} profile {profile}")
        name = f"p{p}s{shift}k{k}_{index}.svg"
        write_partition_svg(OUT_DIR / name, pi, word=word)
    print()


def rotation_walkthrough() -> None:
    spec = WordSpec(2, 1, 2)
    word = build_word(spec)
    base_word = build_word(WordSpec(2, 0, 2))
    print(f"rotation: matchings for  {word_text(word)}  map onto  {word_text(base_word)}")
    for pi in enumerate_adapted(spec):
        image = rotate_cover(pi)
        print(
            f"  {pi.to_line():<24} profile {leg_profile(pi, word)}"
            f"  ->  {image.to_line():<24} profile {leg_profile(image, base_word)}"
        )
    print()


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    gallery(1, 0, 3)
    gallery(2, 0, 2)
    gallery(2, 1, 2)
    rotation_walkthrough()
    count = len(list(OUT_DIR.glob("*.svg")))
    print(f"wrote {count} SVG files under {OUT_DIR}")


if __name__ == "__main__":
    main()
