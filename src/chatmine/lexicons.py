"""Lexicon files, the bundled suffix-rule lemmatizer, and a Porter-style stemmer.

All lexicons are plain UTF-8 text: ``key<TAB>value`` per line for maps, one
term per line for word lists, ``#`` comments and blank lines ignored. The
bundled copies live in ``chatmine/data`` and are the defaults everywhere; any
config may point at edited copies.
"""

import re
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .fileio import numbered_lines


@lru_cache(maxsize=None)
def data_path(name):
    """Path of a bundled data file. Finding it takes about 30 us (2-core
    Xeon), and every preprocess_utterance call without ``res`` asks for
    five."""
    return Path(str(resources.files("chatmine") / "data" / name))


def _read_lines(path):
    """``(path:line, line)`` for each line that is neither blank nor a
    ``#`` comment."""
    return [
        (f"{path}:{no}", line)
        for no, line in numbered_lines(path, "lexicon file", ConfigError)
        if not line.lstrip().startswith("#")
    ]


def load_wordlist(path):
    """One term per line; returns a tuple preserving file order."""
    return tuple(line.strip() for _, line in _read_lines(path))


def load_map(path):
    """``key<TAB>value`` per line, the key not empty; later duplicates win."""
    table = {}
    for where, line in _read_lines(path):
        key, tab, value = line.partition("\t")
        if not tab:
            raise ConfigError(f"{where}: map line without TAB: {line!r}")
        # an empty key matches between every two characters of every message
        if not key:
            raise ConfigError(f"{where}: map line with an empty key: {line!r}")
        table[key] = value
    return table


def load_rules(path):
    """Ordered ``name<TAB>regex`` rules, compiled; a match is replaced by
    ``[name]``."""
    rules = []
    for where, line in _read_lines(path):
        name, tab, pattern = line.partition("\t")
        # the name goes into a replacement template, where \ is an escape
        if not tab or "\\" in name:
            raise ConfigError(f"{where}: bad rule (want name<TAB>regex, no \\ in name): {line!r}")
        try:
            rules.append((name, re.compile(pattern)))
        except (re.error, OverflowError) as exc:
            raise ConfigError(f"{where}: bad regex ({exc})") from exc
    return tuple(rules)


# -- suffix-rule lemmatizer ----------------------------------------------

_VOWELS = set("aeiou")


def load_lemma_rules(path):
    """Parse the lemma rule table: ``!word`` exception lines, then ordered
    ``suffix<TAB>replacement<TAB>min_stem<TAB>flags`` rules (flags: ``fix``
    enables the undouble / restore-e repair after stripping)."""
    exceptions = set()
    rules = []
    for where, line in _read_lines(path):
        if line.startswith("!"):
            exceptions.add(line[1:].strip())
            continue
        parts = line.split("\t")
        try:
            suffix, replacement, min_stem = parts[0], parts[1], int(parts[2])
        except (IndexError, ValueError) as exc:
            raise ConfigError(
                f"{where}: bad lemma rule (want suffix<TAB>replacement<TAB>integer min_stem): {line!r}"
            ) from exc
        flags = parts[3] if len(parts) > 3 else ""
        rules.append((suffix, replacement, min_stem, flags))
    return frozenset(exceptions), tuple(rules)


def _repair_stem(stem):
    # undouble a trailing double consonant (not l/s/z), else restore a
    # dropped final e on short consonant-vowel-consonant stems
    if (
        len(stem) >= 4
        and stem[-1] == stem[-2]
        and stem[-1] not in _VOWELS
        and stem[-1] not in "lsz"
    ):
        return stem[:-1]
    if (
        len(stem) == 3
        and stem[0] not in _VOWELS
        and stem[1] in _VOWELS
        and stem[2] not in _VOWELS
        and stem[2] not in "wxy"
    ):
        return stem + "e"
    return stem


def lemmatize_word(word, rule_table):
    """Apply the first matching suffix rule; words in the exception list and
    words with no matching rule pass through unchanged."""
    exceptions, rules = rule_table
    if word in exceptions:
        return word
    for suffix, replacement, min_stem, flags in rules:
        if not word.endswith(suffix):
            continue
        stem = word[: len(word) - len(suffix)]
        if len(stem) < min_stem:
            continue
        if "not_after_e" in flags and stem.endswith("e"):
            continue
        if "needs_vowel" in flags and not any(c in _VOWELS for c in stem):
            continue
        if "after_sibilant" in flags and not stem.endswith(("x", "z", "ch", "sh", "o")):
            continue
        if suffix == "s" and stem and stem[-1] in "sui":
            continue
        stem = stem + replacement
        if "fix" in flags:
            stem = _repair_stem(stem)
        return stem
    return word


# -- Porter-style stemmer (used only for the NST heuristic) ---------------


def _measure(stem):
    """Number of vowel-consonant sequences in the stem."""
    pattern = "".join("v" if c in _VOWELS or (c == "y" and i > 0 and stem[i - 1] not in _VOWELS) else "c" for i, c in enumerate(stem))
    return len(re.findall("vc+", pattern))


def _has_vowel(stem):
    return any(c in _VOWELS for c in stem) or "y" in stem[1:]


def porter_stem(word):
    """Compact Porter-style suffix stripper, enough to collapse inflection."""
    w = word
    if len(w) <= 2:
        return w
    # step 1a: plurals
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif not w.endswith("ss") and w.endswith("s"):
        w = w[:-1]
    # step 1b: -ed / -ing
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        for suffix in ("ed", "ing"):
            if w.endswith(suffix) and _has_vowel(w[: -len(suffix)]):
                w = w[: -len(suffix)]
                if w.endswith(("at", "bl", "iz")):
                    w += "e"
                elif len(w) >= 2 and w[-1] == w[-2] and w[-1] not in _VOWELS and w[-1] not in "lsz":
                    w = w[:-1]
                elif _measure(w) == 1 and len(w) >= 3 and w[-3] not in _VOWELS and w[-2] in _VOWELS and w[-1] not in _VOWELS and w[-1] not in "wxy":
                    w += "e"
                break
    # step 1c: -y -> -i after a vowel
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"
    # step 2/3: common derivational endings
    for suffix, repl in (
        ("ational", "ate"),
        ("ization", "ize"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("iveness", "ive"),
        ("biliti", "ble"),
        ("entli", "ent"),
        ("ousli", "ous"),
        ("alli", "al"),
        ("tion", "t"),
        ("ment", ""),
        ("ness", ""),
    ):
        if w.endswith(suffix) and _measure(w[: -len(suffix)]) > 0:
            w = w[: -len(suffix)] + repl
            break
    return w
