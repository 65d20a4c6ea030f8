"""Writers for the corpus formats ``bso.tasks`` reads, for building test
data files."""


def write_plain_corpus(path, sentences):
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            fh.write(" ".join(sent) + "\n")


def write_conll(path, examples):
    with open(path, "w", encoding="utf-8") as fh:
        for p in examples:
            for i, (w, h, l) in enumerate(zip(p.words, p.heads, p.labels), start=1):
                fh.write(f"{i}\t{w}\t{h}\t{l}\n")
            fh.write("\n")
