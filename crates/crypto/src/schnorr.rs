//! Schnorr signatures over a 256-bit prime-field group.
//!
//! The PAST paper requires an unforgeable public-key signature scheme for
//! file certificates, store receipts and reclaim certificates, but does not
//! prescribe one. We implement classic Schnorr signatures in the subgroup of
//! quadratic residues of `Z_p^*` for a baked-in 256-bit safe prime
//! `p = 2q + 1` (generated offline with seed 20010601 and re-validated by
//! the Miller–Rabin test in `modmath`). Nonces are derived
//! deterministically from the secret key and the message (RFC-6979 style),
//! which keeps simulations reproducible and avoids nonce-reuse pitfalls.

use crate::fp::{self, Fp};
use crate::modmath::{addmod, mulmod, rem256};
use crate::sha256::Sha256;
use crate::u256::U256;
use std::sync::Arc;

/// The 256-bit safe prime `p` defining the group `Z_p^*`.
pub const fn group_p() -> U256 {
    U256([
        0x24784f933634954f,
        0xe50f848f2335e646,
        0x2df1a1badef3eab8,
        0x988375c084ea6e19,
    ])
}

/// The 255-bit prime order `q = (p - 1) / 2` of the signing subgroup.
pub fn group_q() -> U256 {
    U256([
        0x123c27c99b1a4aa7,
        0x7287c247919af323,
        0x96f8d0dd6f79f55c,
        0x4c41bae04275370c,
    ])
}

/// The subgroup generator `g = 4 = 2^2`, a quadratic residue of order `q`.
pub fn group_g() -> U256 {
    U256::from_u64(4)
}

/// Fixed-base table for [`group_g`]: a Lim–Lee comb with eight teeth, one
/// per 32-bit part of a scalar. Entry `j` is the product of
/// `g^(2^(32·i)) mod p` over the set bits `i` of `j`, so one lookup
/// contributes the same bit position of all eight parts at once. A
/// constant of the group like `p` and `q` (8 KiB of read-only data,
/// re-derived from `powmod` by a test), not a cache. The walks read it as
/// [`G_COMB_FP`].
#[rustfmt::skip]
const G_COMB: [U256; 256] = [
    U256([0x0000000000000001, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000]),
    U256([0x0000000000000004, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000]),
    U256([0x93954a9e781d7464, 0x1c5f0e989f59e6d2, 0xdaa2a425d5cbe49d, 0x5383491a4502d705]),
    U256([0x05648b53740ca6f2, 0xa75d314436fbcebe, 0x0ea74d219947bd02, 0x1d0638e80a367fe5]),
    U256([0xa75b66e256b4b8ff, 0x236b2dd2f2a01d39, 0x4c1a9753bc9a6b26, 0x6dcdad628a95e6ad]),
    U256([0x547cfc62ee69b95e, 0xc38dae2d8414a85a, 0xd48719d93481d726, 0x862fca092082be82]),
    U256([0x59427b0be54c83d5, 0x0fdaa074ba5d46de, 0x6761e198b7e6d968, 0x610272ddc71fdeac]),
    U256([0x1c194d0928c8e4b6, 0x754b78b4a3094eed, 0x41a442ed21b3902e, 0x5302dff612aa9e7f]),
    U256([0x928452f16ff35ec6, 0x6cb16941afd3d293, 0xfa2f82261a49039f, 0x8f0d71f9551c1a6a]),
    U256([0xdca85d0c1d2fbb2b, 0x0397175955ad977b, 0x5ee92367cc484e53, 0x72ab66a3c5b11f60]),
    U256([0xfe5673d01bd40d44, 0x826b4a82a3782bc3, 0xa7c7f1347a11e052, 0x56bbb05ec78b5941]),
    U256([0xb069301a02e70a72, 0x3f8e20ec4774e283, 0x433c815c2a5fabd8, 0x29e7d5fa145888d4]),
    U256([0x53a88586c8e2549a, 0xeeacb6f966e04ea2, 0x1fe5837a4017bcce, 0x40fe9830efa73c87]),
    U256([0x2a29c687ed54bd19, 0xd5a35756784b5443, 0x51a46c2e216b0882, 0x6b76eb0339b28403]),
    U256([0x2b384090120bb50b, 0x96e1d5c4e68bc8c0, 0x6f35899c14c07d97, 0x849e69d32fa81bff]),
    U256([0x3f781386a591143f, 0xac58c966308d702e, 0x3301413fb6263633, 0x48ef460b2fe125b2]),
    U256([0xb71484e269f901f8, 0x3ffadfc612454721, 0xc5b56fafbb295725, 0x3111a573a23a3bda]),
    U256([0xb7d9c3f671af7291, 0x1adbfa8925df3640, 0xe8e41d040db171dc, 0x2bc3200e03fe8151]),
    U256([0x934f44082bef2850, 0x8745fc89eaa345b5, 0x58beaca17e0c7243, 0x58dad73aaa1d51b1]),
    U256([0x044c70fa435376a2, 0x52f8e90964214a4a, 0x07176f103a49f39c, 0x326471699ea06a93]),
    U256([0x02cb3928ade34d24, 0x6df70ed78b97b4de, 0xb137decd6c25b0f1, 0x709c1b902f5705ef]),
    U256([0xc23c457c4b2409f2, 0xedbd323fe7f306eb, 0x68fc37bff2aeee53, 0x916982bfb3873b8c]),
    U256([0x6285214460b47f44, 0x0a17c887ee11d107, 0xdeaf79a2f3cf33aa, 0x1c1747c2a1225674]),
    U256([0x8a14851182d1fd10, 0x285f221fb847441d, 0x7abde68bcf3ccea8, 0x705d1f0a848959d3]),
    U256([0xa22e83ee5be959eb, 0x784f35c940869ca7, 0xee8a05564977c2b7, 0x30ac52304c2a2789]),
    U256([0x6441c0263970d25d, 0xfc2d5295dee48c58, 0x8c36739e46eb2024, 0x2a2dd300abbe300e]),
    U256([0x72090863bb722a2d, 0x9c10f482ad0da227, 0x7f29ad41e8b34c34, 0x76b2cd199d8dd36e]),
    U256([0x5abb32d54b2ae8c7, 0xc115445d4a94d5cb, 0x72d1cfd705f170a7, 0x1140d324e778036e]),
    U256([0x0f94445b43670f92, 0xbb480d648f23d020, 0xeda7479f804ebbd2, 0x44a9987bd67f9905]),
    U256([0x19d8c1d9d767a8f9, 0x0810b10319595a3a, 0x88ab7cc322470492, 0x7a22ec2ed513f5fe]),
    U256([0x4d6f79c3a78ee494, 0xf2a22a3f189fe6f1, 0x1f9dcd4cf9a553ba, 0x07fd2682494a2dd9]),
    U256([0x35bde70e9e3b9250, 0xca88a8fc627f9bc5, 0x7e773533e6954eeb, 0x1ff49a092528b764]),
    U256([0x31d0bff706771ebe, 0xf1349e6133b23884, 0xa30ba3979aa6eb93, 0x8f4f13ed007f255c]),
    U256([0x59da1122773ebb0b, 0x15a3ebd765272f3e, 0x0259a92dcdbfee25, 0x73b1ee72733d4b27]),
    U256([0x58206b2e964b32f7, 0xafefd25385bd1b1a, 0x67fd16fc66b35d3f, 0x09ce2c96a40c710c]),
    U256([0x6081acba592ccbdc, 0xbfbf494e16f46c69, 0x9ff45bf19acd74fe, 0x2738b25a9031c431]),
    U256([0x9d78a6e48e0193d2, 0x07d39cf00151a0a5, 0xbf98c8dfc9b1544b, 0x29d5e5cdb7de83c5]),
    U256([0x516a4bff01d1b9f9, 0x3a3eef30e2109c50, 0xd07181c447d16673, 0x0ed421765a8fa0fd]),
    U256([0x1c33842ab8c5ae81, 0x5a798f4aff468d80, 0xd52ea78875f4652d, 0x0b8654c1c1c535d2]),
    U256([0x70ce10aae316ba04, 0x69e63d2bfd1a3600, 0x54ba9e21d7d194b5, 0x2e1953070714d74b]),
    U256([0xb3de9320ed0a25a4, 0x49932f02957fde9b, 0x65640477fd785d49, 0x547885614f84fc84]),
    U256([0x8689ad5d47bf6bf2, 0x5c2db2ec0f93ade2, 0x39acce6a37f99fb3, 0x20db2a04343f15df]),
    U256([0x1bc244f24b26522c, 0x9d57dc35b382b23a, 0x5eff7d9a82a32504, 0x167e39939b4efaf8]),
    U256([0x6f0913c92c9948b0, 0x755f70d6ce0ac8e8, 0x7bfdf66a0a8c9412, 0x59f8e64e6d3bebe1]),
    U256([0xbcd0987f83eaed97, 0x61c2eff5bf31473e, 0x6915a652cdf20f30, 0x753a602800aca824]),
    U256([0x85d973446d0df66f, 0xd7dd322993236a28, 0x1a81b41a9aec7c96, 0x0b5f1f5e73f35646]),
    U256([0xeb5e7a6f07616771, 0xfc3783bf1c52c835, 0x745789676120e687, 0x7ff713075062b836]),
    U256([0x4010fb027ae7ddd7, 0x41af814f07a96e05, 0x4789406ce7a7d9f5, 0x3651eadbb2cb968e]),
    U256([0xda07b3bcf600499d, 0x1f71067e3a7a8cb2, 0x1f56e13e92c89bfb, 0x592596726cac1dd6]),
    U256([0x1f2e2fcd6b97fbd6, 0xb3a510daa37e663f, 0x217841848d3a9a7a, 0x338f6e48a8db9b26]),
    U256([0x16811c9ad1d656be, 0x34c446ce5b6f0a80, 0x7a5c6d0cfa5f34f3, 0x7c7a58d6b3ff102e]),
    U256([0xec9b83b1a4bb9b0b, 0x23e28d8c041a772d, 0x5f9ccf034ca113a2, 0x285f0219413cf66e]),
    U256([0x0313cfa965500b42, 0xc148b2312364891f, 0xeda44363029a2e7d, 0x71625a5f97ae017e]),
    U256([0xc35e9f7f28d7026a, 0x3b03bfa6472657ef, 0x5aadca164c80e485, 0x94827dfd54e329c9]),
    U256([0x50536aaf70eb5e35, 0x6a327904e94a86c1, 0x9498e711cccc442b, 0x7f84532fd01f5b56]),
    U256([0xd3e4bc04210fb8e7, 0xf99b56663b886832, 0xc88eb71696555082, 0x3486eb7db1be230e]),
    U256([0x8883f769b16b4d58, 0x78a1f3ca56383811, 0x519e4afc4260eab8, 0x52caacccdf62283d]),
    U256([0xd91f3e8059440ac2, 0x1868c60b127513b9, 0xea95e87b4b9bd570, 0x1a23c7b273b3c4c2]),
    U256([0x89274d787ab1c006, 0xffc67c6b4a47d0f5, 0x6e75b10924e9ef7f, 0x129ebf718ccfec4a]),
    U256([0x249d35e1eac70018, 0xff19f1ad291f43d6, 0xb9d6c42493a7bdff, 0x4a7afdc6333fb129]),
    U256([0x955f4b74b4027f0d, 0xb7b6ca2db58dfb69, 0xfc505acb508aa1da, 0x58cd941761375bd9]),
    U256([0x0c8c8eac63a0d196, 0x14bc1f988fcc211a, 0x955e27b78442b1f9, 0x322f64dc7b089335]),
    U256([0x05a23e1210b88b6c, 0xe855eaa87bbb2468, 0x595b1e17ed5237f9, 0x21e6d26ced7c490b]),
    U256([0x1688f84842e22db0, 0xa157aaa1eeec91a0, 0x656c785fb548dfe7, 0x879b49b3b5f1242d]),
    U256([0x69f7920cc3df1840, 0x41bd781e25a08476, 0x4d018191e0ad1705, 0x3000bf3186243f12]),
    U256([0x8365f89fd947cbb1, 0x21e65be9734c2b93, 0x0614648ca3c0715c, 0x277f870593a68e30]),
    U256([0x0cb87813971129d4, 0x37c298c5b652f666, 0x4971b6c33c296a07, 0x13a933541e773cbf]),
    U256([0x32e1e04e5c44a750, 0xdf0a6316d94bd998, 0x25c6db0cf0a5a81c, 0x4ea4cd5079dcf2fd]),
    U256([0x34d927f690ce7971, 0xf87f56bd9062cd0b, 0x745fbf0dfae4ca69, 0x4e7bb4ee32e553a0]),
    U256([0x8a7400b3d6d0bb26, 0x17de51d7fb1f67a0, 0x759bb8c22dab5436, 0x08e7e837c1c0724f]),
    U256([0x49497d3ecf786609, 0x1097141671276b40, 0x54bdab1a9d3d93cb, 0x2aec62b52c03d4cc]),
    U256([0x00ada56807ad02d5, 0x5d4ccbcaa167c6bb, 0x25050aaf96026473, 0x132e15142b24e518]),
    U256([0x22b73204b7154679, 0x73378b0627226005, 0x68175704913bf67f, 0x758334a915c91dba]),
    U256([0x1d73d95939b759f7, 0x1daf9e6b32e7cd42, 0x168876e1a81419d3, 0x0c827162c8652c9e]),
    U256([0xc26a4902f9f00f32, 0x1b36f2cc3aedc6fa, 0x96c47068579df3cc, 0x326fbbd6cac65c81]),
    U256([0xe530d478b18ba779, 0x87cc46a1c88135a4, 0x2d201fe67f83e477, 0x313b799aa62f03ed]),
    U256([0x9924def66c5b62dd, 0x18710de05b6d0495, 0x7e4460fb3d801223, 0x4e20fa9f12fd466f]),
    U256([0x1ba2dcb3450460d6, 0x97a52e63274845ca, 0x9d2e40773818731a, 0x077cfefb42203d8b]),
    U256([0xd7501bff4347413c, 0xed1b8c070d29b1ae, 0x47bcdcc085f507bb, 0x5e58c2655e540176]),
    U256([0x144fd0d6a0b3da52, 0xea4f26fdee3afa2f, 0xc3102f8c59ec497d, 0x485c1e146f7b29a6]),
    U256([0xc7365faf9b921291, 0xf43f04e9af0afcc9, 0xa22e07c8d6ea3a73, 0x387d188863af0a94]),
    U256([0xf8612f2b3813b4f5, 0xebec8f1798f60ce0, 0x5ac67d687cb4ff16, 0x4970ec6109d1bc39]),
    U256([0x246cca44abc4f29a, 0xa3190475ba529b1e, 0x710af9db2eddcd61, 0x2ea2d7aaf145117d]),
    U256([0x6d3ad97f78df3519, 0xa7548d47c6148632, 0x963a45b1dc834acd, 0x2207e8eb4029d7dc]),
    U256([0x1fbfcdf3841e5c14, 0x064bf0fcf1795bbc, 0xd323e916a54fb091, 0x36d33a5f456899f8]),
    U256([0x5a86e83ada44db01, 0x34203f64a2af88aa, 0x1e9e029fb64ad78b, 0x42c973bc90b7f9ca]),
    U256([0x8971868154ac28e0, 0x35ffc453f3569a62, 0xa79a6c81ef276fee, 0x54f16151476ab058]),
    U256([0xdcd57adee64778e2, 0x0de0083186ee9cfd, 0x42866e91feb5ea47, 0x22be99c413d5e530]),
    U256([0x8d7467383f5c5686, 0xe3db6838bce8d407, 0xe30884bc40578a79, 0x448cdca190830585]),
    U256([0x11594d4dc73cc4c9, 0xaa5e1c53d06d69d8, 0x5e307136226a3f2e, 0x79affcc5bd21a7fe]),
    U256([0x350f026de850b8b2, 0xfb7e64e22f71b191, 0x190a135d3b7312f8, 0x48c7992d3b5c981c]),
    U256([0xafc3ba246b0e4d79, 0x08ea0ef99a90dffe, 0x3636abba0ed8612b, 0x8a9aeef46887f257]),
    U256([0xcc6be245a527ef64, 0x1ae95847794b4d5d, 0x7257ddbb3bf6c5b1, 0x1eec19a8c19de0ee]),
    U256([0x31af8916949fbd90, 0x6ba5611de52d3577, 0xc95f76ecefdb16c4, 0x7bb066a3067783b9]),
    U256([0x3abeac6ce27af4bf, 0x30e04d60c375f618, 0x83f36fc79e67f6c7, 0x48f6a36a9a75f4f1]),
    U256([0xc682622053b73dad, 0xde71b0f3eaa1f21a, 0xe1dc1d639aabf063, 0x8b5717e9e4ed65ac]),
    U256([0xfd7e39e838647d34, 0x9bc9eb50398d05f8, 0xbd908e3f5a599246, 0x954209f5e811d1be]),
    U256([0x888ff8e73ef434e3, 0xbff91f937c926511, 0x6c6d53cccc8a88ef, 0x8b7dc6961187fcaf]),
    U256([0xcd2a871ca5d9796e, 0x72764fe9203b18fb, 0x8d77f83dd3e66fa6, 0x4af7ad1863792b95]),
    U256([0x1031ccdf61315069, 0xe4c9bb155db67da9, 0x07ee3f3c70a5d3e0, 0x935b3ea108fa403d]),
    U256([0x54feb23ad7694847, 0x831883fe815785c9, 0xd3c9bc6a8835e386, 0x3e7ca7721a0cc5d1]),
    U256([0x2f82795827708bcd, 0x27528b6ae22830df, 0x21354fef41e3a361, 0x616f2807e348a92e]),
    U256([0x4ecd411669fa7998, 0x94e057e028d78cf3, 0xb9a2bc91e86f6f5b, 0x948af80e9a791a0b]),
    U256([0xcdcc15a0054c2673, 0xa452d1d339bc80fa, 0x5cb60d1704e1fd43, 0x88a17ef8db251de3]),
    U256([0x5955212bcda815d9, 0x36365ce8793eb9ab, 0xfcad09df823ab0c1, 0x4118bdc0bb112d3d]),
    U256([0x40dc351c006bc215, 0xf3c9ef12c1c50067, 0xc4c285c329f6d84b, 0x6bdf8142675a46de]),
    U256([0x6b459081c19406ce, 0xc88c2e91b5a70466, 0x645edce75cb53c65, 0x33e2b906eeb588a5]),
    U256([0x889df273d01b85e9, 0x3d2135b7b3662b53, 0x6389d1e293e106de, 0x37076e5b35ebb47c]),
    U256([0x88037b8348736339, 0xef77735fe26d81ba, 0x008fc0917d5f57a3, 0x544875131f7b3863]),
    U256([0xd71d4ee6b5646246, 0xf3bec461434a3a5d, 0xa65bbed03795891d, 0x201ae8cb74180559]),
    U256([0x64730d612d264600, 0x2aa2135b4e234dba, 0xc62eb1a849a6d820, 0x86a79626e4f21f87]),
    U256([0x246346cb11fb5813, 0xfb59bfbfceeb8417, 0x8ee5e17089bfa055, 0x5113f75a050933d3]),
    U256([0xdc9a5e4d0df48a9d, 0x9d200f98b7beb427, 0x5a764a2b875c465e, 0x50114c727d6647fd]),
    U256([0x2978da0dcb68ffd6, 0xaa613544988f0413, 0x0df5e5385f894408, 0x0f3e4648ebc443c3]),
    U256([0x8e7c9cdeb2db654b, 0x585a82d6e45e6190, 0x1620ad5166e06fe1, 0x7fa6c2474ecf9fdf]),
    U256([0xcc8984c128cfd53f, 0xb23b7dae27d7d36f, 0xceadd014fea5ff5a, 0x3510a7dbac7f3530]),
    U256([0xc8279b99fb72a440, 0xd90c96e225c734fa, 0x5f37cbbc36feade9, 0x813b66bf58bfa388]),
    U256([0xb3357fae4b2cd113, 0xb503cddb2d7b2118, 0xf30a49c03f1ef77c, 0x3b6339bbd43f43d5]),
    U256([0xb30d03d6d53cecae, 0x0d766662e0fda3f2, 0xb8ccb16f0c92139c, 0x7e54f7bb5ece7f8f]),
    U256([0x5ecb20a1b255f2cb, 0x86ab0bde1a54dcf8, 0x595de08b956c8e45, 0x2fc97dabec7ab3f3]),
    U256([0xc0aca4c6015c2186, 0x2222b5227e404065, 0xbdd64e1a9c5ee2df, 0x04109a49fde4721d]),
    U256([0x02b2931805708618, 0x888ad489f9010197, 0xf759386a717b8b7c, 0x10426927f791c876]),
    U256([0x9fbf70e172f9e8b2, 0x1040cc4d05989247, 0x1fd4aa11ceb53c2e, 0x3d327efa711a389c]),
    U256([0x5a8573f295b30d79, 0x5bf3aca4f32c62d8, 0x5161068c5be105ff, 0x5c4686293f7e7457]),
    U256([0x70ab0b55d7962c37, 0xb67abb58489f91d3, 0x2654353c312f4823, 0x44b0276d8826edd1]),
    U256([0x9e33ddc428241b8d, 0xf4db68d1ff486107, 0x6b5f3335e5c935d5, 0x7a3d27f59bb1492b]),
    U256([0xa6289c4ced6494c5, 0xf654fe6dbad720f4, 0x1ab32a570ecc5279, 0x42a4d69c5450dd5d]),
    U256([0x742a21a07f5dbdc5, 0xf4447527c8269d8c, 0x3cdb07a15c3d5f2e, 0x720fe4b0cc59075b]),
    U256([0x123f687bad46f8d6, 0x96989f2b2236f6c8, 0x8656918734ded8f9, 0x11fe29ca0e941698]),
    U256([0x48fda1eeb51be358, 0x5a627cac88dbdb20, 0x195a461cd37b63e6, 0x47f8a7283a505a62]),
    U256([0x3d051732eddf337c, 0x3c2a71b237b9e277, 0xeec75993912287ea, 0x2eeec15d9a717d1d]),
    U256([0xcf9c0d38814838a1, 0x0b9a4239bbb1a396, 0x8d2bc493659634f0, 0x23378fb5e4db865e]),
    U256([0x17c984ec382afdf8, 0xa92570f61b2a91d9, 0xf1870f87caa55515, 0x91fd51311f02679a]),
    U256([0xf1bd24f73e0e37f3, 0xf567362b03089491, 0x3c4758ee8db9942b, 0x7e6ae382ed4a5420]),
    U256([0x32f26f7f073822ad, 0x7826b4a35efc79b3, 0x64e51edff1e02d29, 0x75a1acb814428ab4]),
    U256([0x5e60cf427a42cac7, 0x316c44e0125033fa, 0x09bf964f2aa4f47b, 0x0cfc519ec24ae086]),
    U256([0xc3c3b1b234652344, 0xa758d574d182a0d9, 0x43f585f75d575405, 0x85decc0a6e65fea9]),
    U256([0xa1a5d80f2ef6cd23, 0xee34c825dc68d094, 0x860132acd8818feb, 0x4df0cee82ad8b059]),
    U256([0x3a28025cc88ec439, 0xadb658058be383e4, 0x5d716ebf5c926779, 0x2b7d0983a895fac5]),
    U256([0xc427b9dfec067b95, 0xd1c9db870c58294a, 0x47d419429355b32d, 0x1570b04e1d6d7cfc]),
    U256([0x1ce08ae48847ccc7, 0xa0fab2cdd3e15c93, 0x363cd01b821167d4, 0x0894dc83a6041e7c]),
    U256([0x73822b92211f331c, 0x83eacb374f85724c, 0xd8f3406e08459f52, 0x2253720e981079f0]),
    U256([0x9d432161107bb3ab, 0x106b58ea98422b90, 0x0af601cd3b981a11, 0x3d938af018cfe79d]),
    U256([0x509435f10bba395d, 0x5c9ddf1b3dd2c7fc, 0xfde6657a0f6c7d8b, 0x5dcab5ffde55305a]),
    U256([0xb2e3ad8a15adff81, 0x84f0ee137ed9e8bf, 0xd12b05ffda84d2d3, 0x41f89305d18afec9]),
    U256([0xa7166695208368b5, 0x2eb433bed831bcb8, 0x16ba76448b1f6095, 0x6f5ed656c1418d0e]),
    U256([0xbff1b2b3209885db, 0x895a536acdd231c1, 0xae635ee3ede602b3, 0x2201d2312554189c]),
    U256([0xffc6cacc8262176c, 0x25694dab3748c706, 0xb98d7b8fb7980ace, 0x880748c495506272]),
    U256([0xe8f9a92fb4a2e3ac, 0x2b70b9c3a589ab5c, 0x9fc9a4d503f2fe8a, 0x31bb6c9fbf4ec766]),
    U256([0x7f6e552b9c56f961, 0xc8b3627f72f0c72d, 0x5134f19930d80f6f, 0x2e6a3cbe7850af81]),
    U256([0xfc994e6789a472b9, 0xd9664f6d139d0fd3, 0xf47c9c1249ab98b5, 0x182109942eb2fc72]),
    U256([0xf265399e2691cae4, 0x65993db44e743f4f, 0xd1f2704926ae62d7, 0x60842650bacbf1cb]),
    U256([0x56cd3356b9286e2a, 0x93b81cfeb95317fa, 0xfba0360d06dd351e, 0x6d97d3d1b5979ca3]),
    U256([0x12442e3478388e0a, 0x84c16adc9ee0935d, 0x929d94be5d8cff08, 0x855863c5cc89965d]),
    U256([0x8a84fe9cfc5528a0, 0x24bb4b7ea2434433, 0xfa852bcd2ca0decf, 0x9715dba1ce2fe906]),
    U256([0xbcab0bba4eb6e293, 0xe3bea04d1f6b5dfb, 0x603fca0415a7bb11, 0x92cd0d45aa0059d0]),
    U256([0x4d5f0e801785185f, 0xf4b76df7fe15e0fe, 0x061565c47d1fba67, 0x20c51307a68fd69f]),
    U256([0x357c3a005e14617c, 0xd2ddb7dff85783f9, 0x18559711f47ee99f, 0x83144c1e9a3f5a7c]),
    U256([0x3058b35648ca1077, 0xa66b5414ad0643e8, 0xe1e73fa1e04e12e1, 0x5b7b9377f2608a1d]),
    U256([0x78722e32b6bf173e, 0xcf8e47346dad4314, 0x2bb9bb11c3507614, 0x3ce7625ebfad4c45]),
    U256([0xadd76994ab4ea65f, 0x01470cadba02850b, 0xa379c567800a140c, 0x3afc654c7243143e]),
    U256([0x92e556bf7706042d, 0x200cae27c4d42de8, 0x5ff573e321346577, 0x536e1f714421e2e1]),
    U256([0xb377e88936f34874, 0xd15097e12859d8ba, 0x7afb9d3f4eb31ab5, 0x834b5ca9c8eda176]),
    U256([0x6076b36b392f61e3, 0x9613d1d737c5b018, 0x62198fcc9df0aaac, 0x43a3116594f73b8e]),
    U256([0xb23c1ff0c5fad5b5, 0x6a74d1ecff7ed550, 0x31eef4ad9e364bf0, 0x36ebdbc72eab5f23]),
    U256([0xa478302fe1b6c185, 0xc4c3c324dac56efc, 0x99ca30fb99e54508, 0x432bf95c35c30e73]),
    U256([0x945213c8b0090793, 0x4759c78b979ff32c, 0x1a5d4515dc96e03e, 0x1d0e0c82324f68d7]),
    U256([0x51484f22c0241e4c, 0x1d671e2e5e7fccb2, 0x69751457725b80f9, 0x74383208c93da35c]),
    U256([0xdaf362e5b17b4932, 0x13266ccd1311caca, 0x804818b5264cde3d, 0x5b872f4e2577b006]),
    U256([0x22dcec705983fa2a, 0x827aaa1605db5e9f, 0xa53d1f5edb4ba382, 0x3d15d1b78c09e3e7]),
    U256([0x8018f550fd79d26c, 0xed78d0c602144dd3, 0x8798dc9c441bf97b, 0x18cef7d46a1e1255]),
    U256([0x0063d543f5e749b0, 0xb5e343180851374e, 0x1e637271106fe5ef, 0x633bdf51a8784956]),
    U256([0x08db022e6b57c189, 0xe578bf96b545b0f6, 0x8ffcf893a0d5710d, 0x2a5ea5d0e04aec1f]),
    U256([0xfef3b926772a70d5, 0xb0d379cbb1e0dd91, 0x12024093a461d97e, 0x10f72182fc414265]),
    U256([0xac2d6b08a28a2609, 0x67f88557e5a2d66a, 0x6f74a085b343596a, 0x65e39215e7275ff1]),
    U256([0x67c50cfc1dbf6d86, 0xd5c30c41501f8d1e, 0x61ef3ea10f259037, 0x66875cd692c8a393]),
    U256([0x0e650e9fa4419042, 0xc099f42c4bb2751e, 0x1de34af2ef821b13, 0x387079bc60caee73]),
    U256([0x151beaeb5ad1abb9, 0x1d584c220b93ee32, 0x499b8a10df148196, 0x493e7130fe414bb3]),
    U256([0x909541c01563d658, 0x585429808714f038, 0x6b2a1486b3520ade, 0x29e84f5ca70c80ed]),
    U256([0x1ddcb76d1f5ac411, 0x7c412172f91dda9c, 0x7eb6b05fee5440c0, 0x0f1dc7b21747959c]),
    U256([0x38830aeee9cb0228, 0x42dab2553f52109b, 0x8b8fb2136db0d493, 0x72bbd738fe3b17e9]),
    U256([0x74a33d02048e48b3, 0x5c3c3ba793a68f9a, 0xa469e31d19e79222, 0x0164fba26a2d155a]),
    U256([0x4f0ff4ba926652ca, 0x3cc5b572e04d5226, 0x3fb9b78e0dc1dcb6, 0x367da8cc78b797c5]),
    U256([0x17c783571364b5d9, 0x0e07513c5dff6253, 0xd0f53c7d58138820, 0x41732d715df3f0fb]),
    U256([0xee278061e36147cc, 0xcac13ad70618a91c, 0x60447d89f928bb0e, 0x82a35c09abdae489]),
    U256([0x4b3512cdeae75f43, 0x7bd65daeaec0f1a1, 0xf73d10f747c72c10, 0x41030ee520ac47d9]),
    U256([0x155b981d61efc190, 0xc9f94171bb89c65a, 0x2101123f5fa54a19, 0x1fb785c33b147eeb]),
    U256([0x556e607587bf0640, 0x27e505c6ee271968, 0x840448fd7e952867, 0x7ede170cec51fbac]),
    U256([0x840a8fc432160a9a, 0x35603b17c00f01a2, 0x857a6588d1d2cba6, 0x31ccd565bb3cb59e]),
    U256([0xebb1ef7d92239519, 0xf07167cfdd062043, 0xe7f7f468685743df, 0x2eafdfd668086860]),
    U256([0xbbc97b1c71168a25, 0x131ae727147c3ffb, 0xcd55d16cf4d859ee, 0x8c267923361afa78]),
    U256([0x81bcfdb821bc68a7, 0x9d3d0eeee84f4d1c, 0xab8260833685a78d, 0x670f834b49ac9f97]),
    U256([0x6cdcfb5faae06edb, 0x9e7eca81ec208c38, 0xaef6c3b6fb189222, 0x2e69679a3833e869]),
    U256([0x8efb9deb754d261d, 0x94eba5788d4c4a9b, 0x8de96d210d6e5dd1, 0x212228a85be5338d]),
    U256([0xcd7b2dd0f0028a54, 0xb750ded139b98a6e, 0xacd3daa927da0522, 0x3a254c84b86f5b30]),
    U256([0x117467b089d59401, 0xf833f6b5c3b04375, 0x855dc8e9c07429d1, 0x5011bc525cd2fea9]),
    U256([0x0764f782ae647ce3, 0x4a78608dc994226c, 0x2fe407e223bc9768, 0x381dc2ceeac6c3d8]),
    U256([0xf91b8e77835d5e3d, 0x44d1fda8031aa369, 0x919e7dcdaffe72e8, 0x47f3957b2630a147]),
    U256([0xef7de139d76fe0b6, 0x756050e652cfb8ad, 0x9255f958c5ae03e9, 0x14eeafbaf93f20d4]),
    U256([0xbdf784e75dbf82d8, 0xd58143994b3ee2b7, 0x4957e56316b80fa5, 0x53babeebe4fc8352]),
    U256([0x4a4a047f81c48805, 0xb25d63edf98a3829, 0x743fe61556af2f1d, 0x8a6aa47ecfb539c2]),
    U256([0xbbbf234464746027, 0x1a47020a7c872dd2, 0x472ab324bde0fc4c, 0x602030b9b0159cbe]),
    U256([0xe98b197dc04e396c, 0xe56053f28377548d, 0x99ed74e6ea1de89b, 0x0e36c4b1dc6c5b1b]),
    U256([0xa62c65f70138e5b0, 0x95814fca0ddd5237, 0x67b5d39ba877a26f, 0x38db12c771b16c6e]),
    U256([0x17a7fde762d0f96b, 0xf917927e1f3d7cfc, 0x988978e61b038de7, 0x68e7f64ff748f659]),
    U256([0x15af58771edabb0e, 0x1a3f40da368a2764, 0x0642a022ae26622e, 0x7298edbed34efd34]),
    U256([0x31e4b3cf5b6fa1b3, 0xc05c02874c296a22, 0xfc03f3615afc6eba, 0x8bbb83e19d587387]),
    U256([0x5a29e083cb20c6df, 0x52417c6fc703f5b6, 0x663ae854cf15fac0, 0x6563ae44e6a283d4]),
    U256([0x7f9562231b1c1338, 0x62d63193019a91e1, 0x4f2f096f28b5d695, 0x760f518908011f8a]),
    U256([0x90ec99d2c9d28cf3, 0xdc2a389e9cc894b3, 0xb2e7408c05fb9a2a, 0x0eb2e4e2914533dd]),
    U256([0x0f1acdf365000701, 0x1a59a5efb61cce10, 0x6668716ffedd0e39, 0x06bed48b2c08227d]),
    U256([0x3c6b37cd94001c04, 0x696697bed8733840, 0x99a1c5bffb7438e4, 0x1afb522cb02089f5]),
    U256([0x2d3356a3792e59da, 0x2c5fd8d9402e94a5, 0xd4343df28af72bcc, 0x89643b7393ec9586]),
    U256([0x47646bd4421ba77b, 0x0250d5b797189fc2, 0xc6fc12998f00ef06, 0x5c068c8cc0f30bcf]),
    U256([0x308f1d636815d2e7, 0xc778b66619d7c458, 0x809e5eb1b310796b, 0x6fa7bacdf3ae09aa]),
    U256([0x794bd66733ee20fe, 0x53c3d07a20f344d4, 0xa69637510e5a103d, 0x8d97ffb6c4e34a77]),
    U256([0x3acd21899134b72f, 0x4df21327dc1b2fea, 0x8d1c91d506ae7655, 0x94fdef1025debee3]),
    U256([0x7dcb976ca2351ccf, 0x8899bef206cb0cd6, 0xaa9d62237dde192a, 0x8a6d5aff08bbb142]),
    U256([0xeaa4ef66b4b3b8ba, 0x152173f56d144d84, 0x63e97c81dea222ea, 0x786a6c432e89beec]),
    U256([0x3d2acee1303122fb, 0xa55742284aaf8341, 0x05d10cd6ddaccb7d, 0x181f4fcb2b67b166]),
    U256([0x8992c0b8f7fce61e, 0x4fd33c20691a1ceb, 0xbee2e59493b4717c, 0x460c1f5d24331e4a]),
    U256([0x01d2b350a9bf0329, 0x5a3d6bf281328d68, 0xcd99f4976fdddb38, 0x7fad07b40be20b11]),
    U256([0x01ea0ffdbffd0c53, 0x92789944e5a9fbdf, 0x6c71afa4a3b6d5a6, 0x7598218b97acb552]),
    U256([0x9a3f513d5d56715f, 0x9ab3d7662d063ca9, 0x27f1d961f1ff966f, 0x0cd624eccff38afe]),
    U256([0x105a90692578f197, 0x69910718b4211d20, 0xdc66c3a4747e4053, 0x109e11e13fa91c59]),
    U256([0x416a41a495e3c65c, 0xa6441c62d0847480, 0x719b0e91d1f9014d, 0x42784784fea47167]),
    U256([0x17ce973824fc1ded, 0x1c9b2a2970a27ca7, 0x73b324422169a954, 0x017188ea15a7f9b7]),
    U256([0x5f3a5ce093f077b4, 0x726ca8a5c289f29c, 0xcecc910885a6a550, 0x05c623a8569fe6dd]),
    U256([0xc3a1c8e4a086fbc7, 0x14ef0f53578d072a, 0x6dbfda20a6e5a6e8, 0x7df29a3db193231a]),
    U256([0xa11e34d8df7e2f2f, 0xa48daf9ff49269d8, 0x2d2a8351febadb75, 0x2e4007b5378d421e]),
    U256([0x3294715bb4327cc9, 0x624c710cd49c95aa, 0xd344663f11b992d3, 0x28d2d3ed09e40405]),
    U256([0xa5d975db9a955dd5, 0xa4223fa42f3c7062, 0x1f1ff74167f26094, 0x0ac7d9f3a2a5a1fe]),
    U256([0x40fad12b47f49ec1, 0xe9c34eb868de470e, 0xd902f3a1aa894c52, 0x5ab2428eb2a53f07]),
    U256([0xbafaa586b3695066, 0xdcee31c35d0d4fac, 0x08288b10ec3d5bd9, 0x39c21eb9c0c01fed]),
    U256([0x8c005b063238427a, 0xe16bbbc00892d9dc, 0xe487bb6e12aea83c, 0x34d0c4bf67ba9192]),
    U256([0x0b891c8592ac7499, 0xa09f6a70ff15812c, 0x642d4bfd6bc6b63a, 0x3abf9d3d19ffd832]),
    U256([0x805385cc617ce079, 0x97adb9cb12cf09ce, 0xdc0b3281ad7bc49b, 0x0b581eec5e603cf2]),
    U256([0x014e173185f381e4, 0x5eb6e72c4b3c273a, 0x702cca06b5ef126e, 0x2d607bb17980f3cb]),
    U256([0x17b51d6af9e9778a, 0x21475c7fecd00b3b, 0x5e99b14331149540, 0x4f045a53e0210986]),
    U256([0x15e3d6857b3cb38a, 0xbafe68e16cd46060, 0x1e838197066a7f8e, 0x0b0a7dce76af49e7]),
    U256([0xcb763a71e334fa6b, 0x2d7786c8dbf55be9, 0x2a0210742b396f88, 0x402cecf5e65a3d5d]),
    U256([0x09609a34569f545d, 0xd0ce96944c9f8961, 0x7a16a015cdf1d367, 0x68303e17147e875b]),
    U256([0x1e41636441d01e07, 0xe5cc421eb6d506ad, 0x36ad80e3bdc7041b, 0x057630707ff256fb]),
    U256([0x79058d910740781c, 0x9731087adb541ab4, 0xdab6038ef71c106f, 0x15d8c1c1ffc95bec]),
    U256([0xf934ed5777ea8731, 0xd27bd1e281a81a64, 0x8dbac4ce5ae6cfa5, 0x0d4ece22a6c0a059]),
    U256([0xe4d3b55ddfaa1cc4, 0x49ef478a06a06993, 0x36eb13396b9b3e97, 0x353b388a9b028166]),
    U256([0x2dc086aff6e6e665, 0x691df2712d2d1bf7, 0xabfe9d3a0e271b0a, 0x9384fd0cd07aadae]),
    U256([0x49992c0638fdd9a7, 0xf5493c174b12bd0a, 0x26258fb79bc0abfe, 0x848992f1b32b6c6f]),
    U256([0x3a8bb6a668b4fc79, 0x43267346c0f636ef, 0x6233eee8c722704b, 0x62008c4059e3ee8c]),
    U256([0xa13e3b73366ac746, 0x427ac3fcbd6d0f30, 0x2cec782d5ea1ebbb, 0x56fb45805dbaddff]),
    U256([0xa008767fcf672e7c, 0x7f5fc95e754fe48a, 0x4a469196d54fb6a2, 0x7607433007b92ea1]),
    U256([0x12b8eb459afefa03, 0x4e5097cc6b9ddf58, 0x9f45612ab8631a5f, 0x0e92ab7e90257039]),
    U256([0x5b498c1699d26e9b, 0x686add189743a906, 0xcce1368095be6cd6, 0x53124a400bb5c211]),
    U256([0x24359133fae08fce, 0xd78c6b4416a2d78d, 0xd7a1968c9911dde7, 0x1b423d7f25022c14]),
    U256([0xd5d7f566e3fc16a0, 0x0054822b2f88cbc4, 0x0a409bbdad283e8b, 0x4453375e4161e6b4]),
    U256([0x32e7860859bbc531, 0x1c42841d9aed48cd, 0xfb10cd3bd5ad0f73, 0x78c967b8809d2cb6]),
];

/// `G_COMB` in Montgomery form, the table [`comb_product`] walks for `g`.
/// `Fp::from_u256` is a `const fn`, so the compiler converts each entry
/// and the result is read-only data like `G_COMB` itself: nothing runs at
/// start-up or on first use.
const G_COMB_FP: [Fp; 256] = {
    let mut table = [Fp::ONE; 256];
    let mut j = 0;
    while j < 256 {
        table[j] = Fp::from_u256(&G_COMB[j]);
        j += 1;
    }
    table
};

/// Builds the eight-tooth comb of `base` that `G_COMB_FP` is for `g`, in
/// Montgomery form: entry `j` is the product of `base^(2^(32·i)) mod p`
/// over the set bits `i` of `j`. 224 squarings for the eight single-tooth
/// entries, then one multiply for each of the other 247 (entry `j` is
/// entry `j` without its lowest set bit times that bit's entry).
fn comb_table(base: &U256) -> [Fp; 256] {
    let mut table = [Fp::ONE; 256];
    let mut tooth = Fp::from_u256(base);
    for i in 0..8 {
        if i > 0 {
            for _ in 0..32 {
                tooth = tooth.mul(&tooth);
            }
        }
        table[1 << i] = tooth;
    }
    for j in 1..256usize {
        let low = j & j.wrapping_neg();
        if j != low {
            table[j] = table[j ^ low].mul(&table[low]);
        }
    }
    table
}

/// The comb walk `∏ baseᵢ^expᵢ mod p` behind [`pow_g`] (one term) and
/// [`AnchorKey::verify`] (two), each base given by its [`comb_table`]:
/// for bit column 31 down to 0, square the shared accumulator and multiply
/// by each term's entry selected by that bit of its exponent's eight
/// 32-bit parts — 31 squarings and at most 32 multiplies per term for
/// 256-bit exponents, each a Montgomery multiply, and one conversion out
/// of Montgomery form at the end. Leading columns where every exponent is
/// zero are skipped (variable-time, like `modmath::powmod`).
fn comb_product<const N: usize>(terms: [(&[Fp; 256], &U256); N]) -> U256 {
    let all = terms
        .iter()
        .flat_map(|(_, exp)| exp.0)
        .fold(0, |all, limb| all | limb);
    let columns = 32 - ((all | all >> 32) as u32).leading_zeros();
    let mut result = Fp::ONE;
    for col in (0..columns).rev() {
        if col + 1 < columns {
            result = result.mul(&result);
        }
        for (table, exp) in &terms {
            // Bit `col` of part `i` (bits 32·i.. of `exp`) is bit `i` of
            // the digit; limb `l` holds parts `2l` (low half) and `2l + 1`.
            let mut digit = 0;
            for limb in exp.0.iter().rev() {
                digit = digit << 2 | (limb >> (col + 32) & 1) << 1 | (limb >> col & 1);
            }
            if digit != 0 {
                result = result.mul(&table[digit as usize]);
            }
        }
    }
    result.to_u256()
}

/// Computes `g^exp mod p` for the generator [`group_g`] with the
/// fixed-base comb `G_COMB_FP`: 31 squarings and at most 32 multiplies for
/// any 256-bit scalar, against about 330 for `modmath::powmod`, which must
/// build a window table for a base it has never seen and walk all 252
/// squarings. Equal to `powmod(&group_g(), exp, &group_p())` for every
/// `exp`, and variable-time like it.
pub fn pow_g(exp: &U256) -> U256 {
    comb_product([(&G_COMB_FP, exp)])
}

/// A public verification key (a group element `y = g^x mod p`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PublicKey(pub U256);

impl PublicKey {
    /// Serializes the key to 32 big-endian bytes (input to nodeId hashing).
    pub fn to_bytes(self) -> [u8; 32] {
        self.0.to_be_bytes()
    }
}

/// A Schnorr signature `(R, s)` with `R = g^k` and `s = k + e·x mod q`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    /// The public nonce commitment `R = g^k mod p`.
    pub commitment: U256,
    /// The response scalar `s = k + e·x mod q`.
    pub response: U256,
}

impl Signature {
    /// Serializes the signature to 64 bytes (`R ‖ s`, big-endian halves).
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.commitment.to_be_bytes());
        out[32..].copy_from_slice(&self.response.to_be_bytes());
        out
    }
}

/// A private/public key pair.
#[derive(Clone)]
pub struct KeyPair {
    secret: U256,
    /// The public half, freely shareable.
    pub public: PublicKey,
}

impl std::fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the secret scalar.
        f.debug_struct("KeyPair")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

/// Hashes arbitrary labeled byte strings to a nonzero scalar modulo `q`.
fn hash_to_scalar(label: &[u8], parts: &[&[u8]]) -> U256 {
    let q = group_q();
    let mut counter = 0u32;
    loop {
        let mut h = Sha256::new();
        h.update(label);
        h.update(&counter.to_be_bytes());
        for part in parts {
            h.update(&(part.len() as u64).to_be_bytes());
            h.update(part);
        }
        let digest = h.finalize();
        let scalar = rem256(&U256::from_be_bytes(&digest), &q);
        if !scalar.is_zero() {
            return scalar;
        }
        counter += 1;
    }
}

impl KeyPair {
    /// Derives a key pair deterministically from a seed.
    ///
    /// # Examples
    ///
    /// ```
    /// use past_crypto::schnorr::KeyPair;
    ///
    /// let kp = KeyPair::from_seed(b"card-0001");
    /// let sig = kp.sign(b"hello");
    /// assert!(kp.public.verify(b"hello", &sig));
    /// ```
    pub fn from_seed(seed: &[u8]) -> KeyPair {
        let secret = hash_to_scalar(b"past-keygen-v1", &[seed]);
        let public = PublicKey(pow_g(&secret));
        KeyPair { secret, public }
    }

    /// Signs a message with a deterministic nonce.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let q = group_q();
        let k = hash_to_scalar(b"past-nonce-v1", &[&self.secret.to_be_bytes(), msg]);
        let commitment = pow_g(&k);
        let e = challenge(&commitment, &self.public, msg);
        // s = k + e·x mod q.
        let response = addmod(&k, &mulmod(&e, &self.secret, &q), &q);
        Signature {
            commitment,
            response,
        }
    }
}

/// The Fiat–Shamir challenge `e = H(R ‖ y ‖ msg) mod q`.
fn challenge(commitment: &U256, public: &PublicKey, msg: &[u8]) -> U256 {
    hash_to_scalar(
        b"past-chal-v1",
        &[&commitment.to_be_bytes(), &public.0.to_be_bytes(), msg],
    )
}

impl PublicKey {
    /// Verifies `sig` over `msg`: checks `g^s · y^(p−1−e) ≡ R (mod p)`,
    /// one interleaved double exponentiation — `modmath::powmod2`'s walk,
    /// on Montgomery multiplies modulo `p`.
    ///
    /// That is `g^s ≡ R · y^e` with `y^e` moved across: the range checks
    /// put `y` in `Z_p^*`, where `y^(p−1) = 1` whether or not `y` lies in
    /// the order-`q` subgroup, so `y^(p−1−e)` is the inverse of `y^e`;
    /// and `0 < e < q < p−1` keeps the exponent positive. A response
    /// `s ≥ q` is refused: `g` has order `q`, so `(R, s + q)` would
    /// satisfy the equation whenever `(R, s)` does, and a signature must
    /// have one encoding.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        verify_with(self, msg, sig, |s, neg_e| {
            fp::pow2(&group_g(), s, &self.0, neg_e)
        })
    }
}

/// The verification predicate shared by [`PublicKey::verify`] and
/// [`AnchorKey::verify`]: the range checks, the challenge `e`, and
/// `g^s · y^(p−1−e) == R` with the product computed by `product(s, p−1−e)`.
fn verify_with(
    key: &PublicKey,
    msg: &[u8],
    sig: &Signature,
    product: impl FnOnce(&U256, &U256) -> U256,
) -> bool {
    let p = group_p();
    if sig.commitment.is_zero()
        || sig.commitment >= p
        || key.0.is_zero()
        || key.0 >= p
        || sig.response >= group_q()
    {
        return false;
    }
    let e = challenge(&sig.commitment, key, msg);
    let (p_minus_1, _) = p.overflowing_sub(&U256::ONE);
    let (neg_e, _) = p_minus_1.overflowing_sub(&e);
    product(&sig.response, &neg_e) == sig.commitment
}

/// A verification key that carries its own fixed-base comb: the trust
/// anchor (the broker's key) that every node checks half of all
/// signatures against. [`AnchorKey::verify`] answers exactly as
/// [`PublicKey::verify`] does — same range checks, same challenge, same
/// equation — but walks `G_COMB_FP` and the key's table together over 32
/// columns: 31 squarings and at most 64 multiplies instead of about 400.
///
/// Building the table costs about 470 multiplies, once per key. Cloning
/// is an `Arc` clone, so every holder of the anchor shares one 8 KiB
/// table; nothing caches a verification result.
#[derive(Clone)]
pub struct AnchorKey(Arc<Anchor>);

struct Anchor {
    key: PublicKey,
    comb: [Fp; 256],
}

impl AnchorKey {
    /// Builds the comb for `key`.
    pub fn new(key: PublicKey) -> AnchorKey {
        AnchorKey(Arc::new(Anchor {
            key,
            comb: comb_table(&key.0),
        }))
    }

    /// The plain public key.
    pub fn key(&self) -> PublicKey {
        self.0.key
    }

    /// Verifies `sig` over `msg` under this key; equal to
    /// `self.key().verify(msg, sig)` for every input.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        verify_with(&self.0.key, msg, sig, |s, neg_e| {
            comb_product([(&G_COMB_FP, s), (&self.0.comb, neg_e)])
        })
    }
}

impl PartialEq for AnchorKey {
    // The table is a function of the key, so the keys decide.
    fn eq(&self, other: &AnchorKey) -> bool {
        self.0.key == other.0.key
    }
}

impl Eq for AnchorKey {}

impl std::fmt::Debug for AnchorKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AnchorKey").field(&self.0.key).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modmath::{powmod, powmod2};
    use crate::rng::Rng;

    /// The verification equation as it stood before the double
    /// exponentiation — `g^s ≡ R · y^e` with two independent `powmod`s
    /// and no bound on `s` — kept as the oracle `verify` is checked
    /// against.
    fn verify_two_powmods(key: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        let p = group_p();
        if sig.commitment.is_zero() || sig.commitment >= p || key.0.is_zero() || key.0 >= p {
            return false;
        }
        let e = challenge(&sig.commitment, key, msg);
        let lhs = powmod(&group_g(), &sig.response, &p);
        let rhs = mulmod(&sig.commitment, &powmod(&key.0, &e, &p), &p);
        lhs == rhs
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn known_answer_key_and_signature() {
        // Recorded on the two-`powmod` code: key generation and signing
        // must stay byte-identical under any change to verification.
        let kp = KeyPair::from_seed(b"kat-1");
        assert_eq!(
            hex(&kp.public.to_bytes()),
            "0124cc36ce969601dd507f88d72ef61fc96166eb308433838ac28737e110d352"
        );
        let sig = kp.sign(b"past-kat");
        assert_eq!(
            hex(&sig.to_bytes()),
            "0993330c1ca7e96088d3bcc275cce4c4da2858925202ccf0b5922420acb28fa6\
             17b9008a4d6c3d98af7fa807d181e115f8df020f4be31558b1457a7b04ee5819"
        );
        assert!(kp.public.verify(b"past-kat", &sig));
    }

    /// `from_seed` and `sign` as they stood before the comb — `g^x` and
    /// `g^k` by the generic window-4 `powmod` — kept as the oracle the
    /// fixed-base path is checked against.
    fn from_seed_powmod(seed: &[u8]) -> KeyPair {
        let secret = hash_to_scalar(b"past-keygen-v1", &[seed]);
        let public = PublicKey(powmod(&group_g(), &secret, &group_p()));
        KeyPair { secret, public }
    }

    fn sign_powmod(kp: &KeyPair, msg: &[u8]) -> Signature {
        let q = group_q();
        let k = hash_to_scalar(b"past-nonce-v1", &[&kp.secret.to_be_bytes(), msg]);
        let commitment = powmod(&group_g(), &k, &group_p());
        let e = challenge(&commitment, &kp.public, msg);
        let response = addmod(&k, &mulmod(&e, &kp.secret, &q), &q);
        Signature {
            commitment,
            response,
        }
    }

    #[test]
    fn comb_table_rederives_from_powmod() {
        let p = group_p();
        // g^(2^(32·i)): the scalar whose only set bit is bit 0 of part i.
        let part_bases: [U256; 8] = std::array::from_fn(|i| {
            let mut e = U256::ZERO;
            e.0[i / 2] = 1 << (32 * (i % 2));
            powmod(&group_g(), &e, &p)
        });
        for (j, entry) in G_COMB.iter().enumerate() {
            let want = (0..8)
                .filter(|i| j >> i & 1 == 1)
                .fold(U256::ONE, |acc, i| mulmod(&acc, &part_bases[i], &p));
            assert_eq!(*entry, want, "G_COMB[{j}]");
        }
    }

    #[test]
    fn g_comb_fp_is_g_comb_in_montgomery_form() {
        let p = group_p();
        for (j, entry) in G_COMB_FP.iter().enumerate() {
            // g to the sum of 2^(32·i) over the set bits i of j, one powmod.
            let mut e = U256::ZERO;
            for i in (0..8).filter(|i| j >> i & 1 == 1) {
                e.0[i / 2] |= 1 << (32 * (i % 2));
            }
            let plain = powmod(&group_g(), &e, &p);
            assert_eq!(*entry, Fp::from_u256(&plain), "G_COMB_FP[{j}]");
            assert_eq!(entry.to_u256(), plain, "G_COMB_FP[{j}]");
        }
    }

    #[test]
    fn comb_matches_powmod_on_edge_and_random_scalars() {
        let p = group_p();
        let q = group_q();
        let check = |k: U256| assert_eq!(pow_g(&k), powmod(&group_g(), &k, &p), "k={k:?}");
        for i in 0..256 {
            let mut k = U256::ZERO;
            k.0[i / 64] = 1 << (i % 64);
            check(k);
        }
        let (q_minus_1, _) = q.overflowing_sub(&U256::ONE);
        for k in [
            U256::ZERO,
            U256::ONE,
            q_minus_1,
            q,
            U256([u32::MAX as u64, 0, 0, 0]), // 2^32 − 1
            U256([1 << 32, 0, 0, 0]),         // 2^32
            U256([u64::MAX, 0, 0, 0]),        // 2^64 − 1
            U256([0, 1, 0, 0]),               // 2^64
            U256([0, 1 << 32, 0, 0]),         // 2^96
            U256([u64::MAX, u64::MAX, 0, 0]), // 2^128 − 1
            U256([0, 0, 1, 0]),               // 2^128
            U256([0, 0, 1 << 32, 0]),         // 2^160
            U256([0, 0, 0, 1]),               // 2^192
            U256([0, 0, 0, 1 << 32]),         // 2^224
            U256::MAX,
        ] {
            check(k);
        }
        // One limb all-ones, the rest zero — and the complement.
        for i in 0..4 {
            let mut k = U256::ZERO;
            k.0[i] = u64::MAX;
            check(k);
            check(U256(k.0.map(|l| !l)));
        }
        // One 32-bit part all-ones, the rest zero — and the complement.
        for i in 0..8 {
            let mut k = U256::ZERO;
            k.0[i / 2] = (u32::MAX as u64) << (32 * (i % 2));
            check(k);
            check(U256(k.0.map(|l| !l)));
        }
        // Each 32-bit part's width drawn independently, so columns where
        // only some parts still have bits — and whole zero parts — are
        // common.
        let mut rng = Rng::seed_from_u64(0xc04b);
        let mut part = || match rng.next_u64() % 33 {
            0 => 0,
            width => rng.next_u64() >> (64 - width),
        };
        for _ in 0..2_400 {
            check(U256(std::array::from_fn(|_| part() | part() << 32)));
        }
    }

    #[test]
    fn keys_and_signatures_match_the_powmod_signer() {
        let mut rng = Rng::seed_from_u64(0xf13d_ba5e);
        for _ in 0..500 {
            let seed = rng.next_u64().to_be_bytes();
            let msg = rng.next_u64().to_be_bytes();
            let kp = KeyPair::from_seed(&seed);
            let old = from_seed_powmod(&seed);
            assert_eq!((kp.secret, kp.public), (old.secret, old.public));
            let sig = kp.sign(&msg);
            assert_eq!(sig, sign_powmod(&old, &msg));
            assert!(kp.public.verify(&msg, &sig));
        }
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::from_seed(b"user-42");
        let sig = kp.sign(b"insert file 7");
        assert!(kp.public.verify(b"insert file 7", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let kp = KeyPair::from_seed(b"user-42");
        let sig = kp.sign(b"msg-a");
        assert!(!kp.public.verify(b"msg-b", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = KeyPair::from_seed(b"user-1");
        let kp2 = KeyPair::from_seed(b"user-2");
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public.verify(b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = KeyPair::from_seed(b"user-1");
        let mut sig = kp.sign(b"msg");
        sig.response = addmod(&sig.response, &U256::ONE, &group_q());
        assert!(!kp.public.verify(b"msg", &sig));
        let mut sig2 = kp.sign(b"msg");
        sig2.commitment = mulmod(&sig2.commitment, &group_g(), &group_p());
        assert!(!kp.public.verify(b"msg", &sig2));
    }

    #[test]
    fn malleated_response_rejected() {
        // g has order q and s + q < 2^256, so (R, s + q) satisfies the
        // verification equation too; it must not be a second valid
        // encoding of the same signature.
        let kp = KeyPair::from_seed(b"user-1");
        let sig = kp.sign(b"msg");
        let (shifted, carry) = sig.response.overflowing_add(&group_q());
        assert!(!carry);
        let malleated = Signature {
            commitment: sig.commitment,
            response: shifted,
        };
        assert!(verify_two_powmods(&kp.public, b"msg", &malleated));
        assert!(!kp.public.verify(b"msg", &malleated));
        assert!(kp.public.verify(b"msg", &sig));
    }

    #[test]
    fn verify_matches_two_powmod_oracle() {
        let p = group_p();
        let q = group_q();
        let (p_minus_1, _) = p.overflowing_sub(&U256::ONE);
        // The smallest quadratic non-residue: outside the order-q subgroup.
        let non_residue = (2..)
            .map(U256::from_u64)
            .find(|n| powmod(n, &q, &p) == p_minus_1)
            .unwrap();
        let outliers = [U256::ZERO, U256::ONE, non_residue, p_minus_1, p, U256::MAX];
        let mut rng = Rng::seed_from_u64(0x5c4_0a11);
        let (mut accepted, mut accepted_outside, mut over_q) = (0, 0, 0);
        for case in 0..1_200u32 {
            let kp = KeyPair::from_seed(&rng.next_u64().to_be_bytes());
            let mut msg = rng.next_u64().to_be_bytes().to_vec();
            let mut sig = kp.sign(&msg);
            let mut key = kp.public;
            let pick = rng.next_u64() as usize;
            let flip = |v: &mut U256| v.0[pick % 4] ^= 1 << (pick / 4 % 64);
            match case % 12 {
                0..=2 => {}
                3 => msg[pick % 8] ^= 1 << (pick / 8 % 8),
                4 => flip(&mut sig.commitment),
                5 => flip(&mut sig.response),
                6 => flip(&mut key.0),
                7 => sig.commitment = outliers[pick % outliers.len()],
                8 => key.0 = outliers[pick % outliers.len()],
                9 => sig.response = sig.response.overflowing_add(&q).0,
                10 => sig.commitment = mulmod(&sig.commitment, &p_minus_1, &p),
                _ => {
                    // A key outside the subgroup, y = −g^x, and a signature
                    // made for it with x: (−1)^e · g^(xe) = y^e, so the old
                    // equation holds exactly when e is even — the new one
                    // must accept those too, not only agree on rejects.
                    key.0 = mulmod(&key.0, &p_minus_1, &p);
                    let k = U256::from_u64(rng.next_u64() | 1);
                    let commitment = powmod(&group_g(), &k, &p);
                    let e = challenge(&commitment, &key, &msg);
                    let response = addmod(&k, &mulmod(&e, &kp.secret, &q), &q);
                    sig = Signature {
                        commitment,
                        response,
                    };
                }
            }
            let want = verify_two_powmods(&key, &msg, &sig);
            let got = key.verify(&msg, &sig);
            if sig.response >= q {
                // The one permitted disagreement: s >= q is always refused.
                assert!(!got, "case {case}: s >= q accepted");
                over_q += 1;
            } else {
                assert_eq!(got, want, "case {case}: key={key:?} sig={sig:?}");
            }
            accepted += got as u32;
            accepted_outside += (got && case % 12 == 11) as u32;
        }
        assert!(
            accepted >= 300 && accepted_outside >= 20 && over_q >= 100,
            "{accepted} {accepted_outside} {over_q}"
        );
    }

    #[test]
    fn comb_table_of_g_is_g_comb() {
        assert!(comb_table(&group_g()) == G_COMB_FP);
    }

    #[test]
    fn two_term_comb_matches_powmod2() {
        let p = group_p();
        let (p_minus_1, _) = p.overflowing_sub(&U256::ONE);
        let bases = [group_g(), KeyPair::from_seed(b"anchor").public.0, p_minus_1];
        let mut rng = Rng::seed_from_u64(0xa2c4);
        // Each 32-bit part's width drawn independently, as in the `pow_g`
        // test: zero upper parts, and columns only one exponent reaches.
        let mut part = || match rng.next_u64() % 33 {
            0 => 0,
            width => rng.next_u64() >> (64 - width),
        };
        for base in bases {
            let table = comb_table(&base);
            let mut exps = vec![U256::ZERO, U256::ONE, U256::MAX];
            exps.extend((0..8).map(|i| {
                let mut k = U256::ZERO;
                k.0[i / 2] = (u32::MAX as u64) << (32 * (i % 2));
                k
            }));
            for _ in 0..150 {
                exps.push(U256(std::array::from_fn(|_| part() | part() << 32)));
            }
            for (i, x) in exps.iter().enumerate() {
                let y = &exps[(i * 7 + 3) % exps.len()];
                assert_eq!(
                    comb_product([(&G_COMB_FP, x), (&table, y)]),
                    powmod2(&group_g(), x, &base, y, &p),
                    "base={base:?} x={x:?} y={y:?}"
                );
            }
        }
    }

    #[test]
    fn anchor_verify_matches_public_key_and_oracle() {
        let p = group_p();
        let q = group_q();
        let (p_minus_1, _) = p.overflowing_sub(&U256::ONE);
        let mut rng = Rng::seed_from_u64(0xa4c4_0707);
        let (mut accepted, mut accepted_outside, mut cases) = (0, 0, 0);
        for round in 0..60u32 {
            let kp = KeyPair::from_seed(&rng.next_u64().to_be_bytes());
            // Every other anchor lies outside the order-q subgroup:
            // y = −g^x, or the order-2 element p − 1 itself.
            let outside = match round % 4 {
                1 => Some(mulmod(&kp.public.0, &p_minus_1, &p)),
                3 => Some(p_minus_1),
                _ => None,
            };
            let key = PublicKey(outside.unwrap_or(kp.public.0));
            let anchor = AnchorKey::new(key);
            assert_eq!(anchor.key(), key);
            for case in 0..14u32 {
                let mut msg = rng.next_u64().to_be_bytes().to_vec();
                let mut sig = match outside {
                    // A signature made for the outside key with x (0 for
                    // p − 1): y^e = (−1)^e · g^(xe), so the equation holds
                    // exactly when e is even and both answers occur.
                    Some(_) => {
                        let k = U256::from_u64(rng.next_u64() | 1);
                        let commitment = powmod(&group_g(), &k, &p);
                        let e = challenge(&commitment, &key, &msg);
                        let x = if key.0 == p_minus_1 {
                            U256::ZERO
                        } else {
                            kp.secret
                        };
                        let response = addmod(&k, &mulmod(&e, &x, &q), &q);
                        Signature {
                            commitment,
                            response,
                        }
                    }
                    None => kp.sign(&msg),
                };
                let pick = rng.next_u64() as usize;
                let flip = |v: &mut U256| v.0[pick % 4] ^= 1 << (pick / 4 % 64);
                match case {
                    0..=3 => {}
                    4 => msg[pick % 8] ^= 1 << (pick / 8 % 8),
                    5 => flip(&mut sig.commitment),
                    6 => flip(&mut sig.response),
                    7 => sig.response = q,
                    8 => sig.response = sig.response.overflowing_add(&q).0,
                    9 => sig.response = U256::MAX,
                    10 => sig.commitment = U256::ZERO,
                    11 => sig.commitment = [p, U256::MAX][pick % 2],
                    // A response whose upper 32-bit parts are all zero.
                    12 => sig.response = U256::from_u64(pick as u64 >> 32),
                    _ => sig.commitment = mulmod(&sig.commitment, &p_minus_1, &p),
                }
                let got = anchor.verify(&msg, &sig);
                assert_eq!(got, key.verify(&msg, &sig), "round {round} case {case}");
                if sig.response < q {
                    assert_eq!(
                        got,
                        verify_two_powmods(&key, &msg, &sig),
                        "round {round} case {case}"
                    );
                } else {
                    assert!(!got, "round {round} case {case}: s >= q accepted");
                }
                cases += 1;
                accepted += got as u32;
                accepted_outside += (got && outside.is_some()) as u32;
            }
        }
        assert!(
            cases == 840 && accepted >= 150 && accepted_outside >= 20,
            "{cases} {accepted} {accepted_outside}"
        );
    }

    #[test]
    fn anchor_keys_compare_by_key_and_share_their_table() {
        let a = AnchorKey::new(KeyPair::from_seed(b"a").public);
        let b = AnchorKey::new(KeyPair::from_seed(b"b").public);
        let a2 = a.clone();
        assert!(Arc::ptr_eq(&a.0, &a2.0));
        assert_eq!(a, a2);
        assert_eq!(a, AnchorKey::new(a.key()));
        assert_ne!(a, b);
        assert_eq!(std::mem::size_of::<AnchorKey>(), 8);
    }

    #[test]
    fn degenerate_values_rejected() {
        let kp = KeyPair::from_seed(b"user-1");
        let sig = Signature {
            commitment: U256::ZERO,
            response: U256::ONE,
        };
        assert!(!kp.public.verify(b"msg", &sig));
        let bogus_key = PublicKey(U256::ZERO);
        assert!(!bogus_key.verify(b"msg", &kp.sign(b"msg")));
    }

    #[test]
    fn deterministic_keys_and_signatures() {
        let a = KeyPair::from_seed(b"same-seed");
        let b = KeyPair::from_seed(b"same-seed");
        assert_eq!(a.public, b.public);
        assert_eq!(a.sign(b"m"), b.sign(b"m"));
    }

    #[test]
    fn distinct_seeds_give_distinct_keys() {
        let a = KeyPair::from_seed(b"seed-a");
        let b = KeyPair::from_seed(b"seed-b");
        assert_ne!(a.public, b.public);
    }

    #[test]
    fn generator_has_order_q() {
        let p = group_p();
        let q = group_q();
        assert_eq!(powmod(&group_g(), &q, &p), U256::ONE);
        // g itself is not the identity.
        assert_ne!(group_g(), U256::ONE);
    }

    #[test]
    fn public_key_in_subgroup() {
        let kp = KeyPair::from_seed(b"subgroup-check");
        assert_eq!(powmod(&kp.public.0, &group_q(), &group_p()), U256::ONE);
    }

    #[test]
    fn debug_does_not_leak_secret() {
        let kp = KeyPair::from_seed(b"secret-stays-secret");
        let rendered = format!("{kp:?}");
        assert!(!rendered.contains(&kp.secret.to_string()));
    }
}
