"""Golden corpus bytes: corpus.generate at fixed master seeds and small sizes
must write exactly these files. The pins cover task sampling, the BFS
oracle, the dynamics (drops included: every boss corpus below has records
whose plans free the hands before a second pickup) and the JSON layout, so
any record byte that moves fails here."""

import hashlib

import pytest

from msvae import corpus
from msvae.gridworld import Action

SIZES = dict(m=16, n=16, val_tasks=8, test_tasks=8)
VOCAB = "6e813ab44a5ba3322a1f4d3c8064cdc8460f3bbc3e1f67e9fac7e1246d133064"
# (difficulty, master seed) -> sha256 of paired, unpaired, val and test.jsonl
GOLDEN = {
    ("boss", 0): ("2d60183994e38fec1f3af14e4dd4635d3d7c43927f8533c9d6b7d50015bcee8c",
                  "a9a6af0b399723afd0ed00fd51efa98132aea6d894195f666214c335231b2399",
                  "0d44760f512377b293ce93f5a92298efe5e784f69c12ebb8f126398cf8b4c250",
                  "ec2be7b47aa309b08155a1208f341a8dbe7f835b8576a396db7330ccaf04440f"),
    ("boss", 5): ("3219ecea0f007fb5656240fa00dbff0e2790a6c296bd192797b3c4b9a6df4411",
                  "46638fb71a86d28c1b969bea9dd6e1ef1a18dd790fe00342b614d802995c2454",
                  "861d0d3c50b09078479911213d0db2c3c5aac2e1ff843e07699cae285937ac4d",
                  "97c38d14eaa120c744004decdeda66789744e747742d3bab4403beb1ae209b75"),
    ("boss", 23): ("b1d3647676302cd1352a4d64379a0fabbdfa27f262862b687a62d8e639ff2311",
                   "757893ad0f90279f2801ee96c75914a522bab691cde3317d085acb4d4089a27d",
                   "91d24a95e44cd3ff5fc3d270665eaf130c91febb4318777eb77e4b4a2edc57a0",
                   "e333800eb410b711c2903d52432a734175f4cf2a7dad0cd63e3938d7316c292a"),
    ("goto_seq", 0): ("7b655449497e9cb0e4a4e3d1f07d4fd0510bef81f569dd0c1bce4a5b29cf01fd",
                      "44635d846b9399a5cdcb93168d57b377c16c90a51ddb6712965bc781eb6e356c",
                      "341f7f3ded15c3c095aeb6e9951f1236aaa47f8b4906e554340da5c23a7619cc",
                      "084fdf81afb21b42d3f9791e95c8dcae7de00e938497f33cc2ee5ff8d8b3b743"),
    ("goto_seq", 5): ("0cca532fd7d4947fa016410cee5b0c7fd34b4e008c06fb880671686d4d7535e7",
                      "e01611af14a4a72d736684e6812648a82aa6586fbcf33d4e9e113e0b6011289c",
                      "21ca0789690bfe5dab876d87924a924393e8cb1bc0450017a2bfc64eef936abc",
                      "6e32194b9f98328d5a3f10bdc1b6d56baf065a6219d2e5bf4c31b8cc541aebf8"),
    ("goto_seq", 23): ("b7a1ae07ae52b7c1857a7190d8ca9ba43f89b670e4850663b157927dad03800e",
                       "b2424cd8a52680d5eb841971d3d063b0ec7f3969fd38458def52b36c5d340928",
                       "f01d47d4a5a4ea53c47ca96bf8ac613310234c206589d1ec34a8c2bc24a3ee4a",
                       "ff1fa2c8b3667404f4b6a3d480ad5b254ef242591f71e5211662327668b7239f"),
}
SPLITS = ("paired", "unpaired", "val", "test")


@pytest.mark.parametrize("difficulty,seed", sorted(GOLDEN))
def test_generate_writes_the_golden_bytes(tmp_path, difficulty, seed):
    corpus.generate(tmp_path, seed=seed, difficulty=difficulty, **SIZES)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    expected = dict(zip((f"{s}.jsonl" for s in SPLITS), GOLDEN[difficulty, seed]), **{"vocab.json": VOCAB})
    assert digests == expected
    c = corpus.load(tmp_path)
    records = [r for s in SPLITS for r in getattr(c, s)]
    assert all(corpus.verify_record(c, r) for r in records)
    assert any(Action.drop in r["actions"] for r in records) == (difficulty == "boss")
